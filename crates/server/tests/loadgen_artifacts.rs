//! `spp-loadgen` end to end, one run per mode at tiny sizes in an empty
//! working directory: each mode's JSON document keeps its key set, order
//! included, and the fields CI and `perf_gate` read; the op mix is
//! deterministic, so the per-class op counts are pinned too.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use spp_bench::JsonValue;

/// An empty working directory of its own, so every artifact a run writes
/// is the run's, and nothing lands in the committed `results/`.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spp_loadgen_artifacts_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn loadgen(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spp-loadgen"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

/// Run `args` to success and parse `results/<file>`.
fn run_ok(name: &str, args: &[&str], file: &str) -> (PathBuf, JsonValue) {
    let dir = empty_dir(name);
    let out = loadgen(&dir, args);
    assert!(
        out.status.success(),
        "{args:?}: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("results").join(file)).unwrap();
    (dir, JsonValue::parse(&text).unwrap())
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn num(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("`{key}` is not a number"))
}

fn rows(doc: &JsonValue) -> &[JsonValue] {
    doc.get("rows").and_then(JsonValue::as_arr).unwrap()
}

/// `(op, ops)` of every row.
fn row_ops(doc: &JsonValue) -> Vec<(&str, u64)> {
    rows(doc)
        .iter()
        .map(|r| {
            (
                r.get("op").and_then(JsonValue::as_str).unwrap(),
                num(r, "ops") as u64,
            )
        })
        .collect()
}

const ROW: [&str; 7] = [
    "policy",
    "op",
    "ops",
    "throughput_ops_s",
    "p50_us",
    "p95_us",
    "p99_us",
];

/// The row keys with `extra` at index 2, as the sweep and multi rows have.
fn row_with(extra: &'static str) -> Vec<&'static str> {
    let mut k = ROW.to_vec();
    k.insert(2, extra);
    k
}

#[test]
fn round_trip_document() {
    let (dir, doc) = run_ok("rt", &["--smoke", "--pool-mb", "16"], "server_loadgen.json");
    assert_eq!(
        keys(&doc),
        [
            "name",
            "policy",
            "conns",
            "ops_per_conn",
            "value_size",
            "read_pct",
            "elapsed_s",
            "rows"
        ]
    );
    for r in rows(&doc) {
        assert_eq!(keys(r), ROW);
    }
    assert_eq!(row_ops(&doc), [("put", 478), ("get", 522)]);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn injected_garbage_fails_the_round_trip() {
    let dir = empty_dir("garbage");
    let out = loadgen(
        &dir,
        &[
            "--smoke",
            "--ops",
            "50",
            "--pool-mb",
            "16",
            "--inject-garbage",
        ],
    );
    assert!(!out.status.success(), "garbage rows passed validation");
    assert!(String::from_utf8_lossy(&out.stderr).contains("result validation failed"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn pipeline_document() {
    let (dir, doc) = run_ok(
        "pipeline",
        // Throttled, so the speedup floor cannot fail a run that shares
        // the host with the other tests; the document is the same.
        &[
            "--pipeline",
            "8",
            "--smoke",
            "--pool-mb",
            "16",
            "--throttle-us",
            "1",
        ],
        "server_loadgen.json",
    );
    assert_eq!(
        keys(&doc),
        [
            "name",
            "mode",
            "policy",
            "pipeline_depth",
            "conns",
            "ops_per_conn",
            "value_size",
            "read_pct",
            "throttle_us",
            "roundtrip_ops_s",
            "pipelined_ops_s",
            "pipeline_speedup",
            "group_batches",
            "group_batched_ops",
            "rows"
        ]
    );
    assert_eq!(
        doc.get("mode").and_then(JsonValue::as_str),
        Some("pipeline")
    );
    assert_eq!(num(&doc, "throttle_us"), 1.0);
    let speedup = num(&doc, "pipeline_speedup");
    let ratio = num(&doc, "pipelined_ops_s") / num(&doc, "roundtrip_ops_s");
    assert!(
        (speedup - ratio).abs() < 1e-9 * ratio,
        "{speedup} vs {ratio}"
    );
    assert!(num(&doc, "group_batches") > 0.0);
    for r in rows(&doc) {
        assert_eq!(keys(r), ROW);
    }
    assert_eq!(
        row_ops(&doc),
        [
            ("put_roundtrip", 478),
            ("put_pipelined", 491),
            ("get_roundtrip", 522),
            ("get_pipelined", 509)
        ]
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn local_shards_document() {
    let (dir, doc) = run_ok(
        "multi",
        &[
            "--local-shards",
            "2",
            "--smoke",
            "--ops",
            "200",
            "--pool-mb",
            "16",
        ],
        "server_loadgen.json",
    );
    assert_eq!(
        keys(&doc),
        [
            "name",
            "mode",
            "policy",
            "shards",
            "conns",
            "ops_per_conn",
            "value_size",
            "read_pct",
            "elapsed_s",
            "total_ops_s",
            "shard_ops",
            "shard_skew_max_over_mean",
            "rows"
        ]
    );
    assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("multi"));
    let shard_ops: Vec<f64> = doc
        .get("shard_ops")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(shard_ops.iter().sum::<f64>(), 400.0);
    let mean = 200.0;
    let skew = shard_ops.iter().copied().fold(0.0, f64::max) / mean;
    assert_eq!(num(&doc, "shard_skew_max_over_mean"), skew);
    for r in rows(&doc) {
        assert_eq!(keys(r), row_with("shard"));
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn sweep_document_and_contention_dump() {
    let (dir, doc) = run_ok(
        "sweep",
        &[
            "--sweep-threads",
            "1,2",
            "--ops",
            "50",
            "--smoke",
            "--pool-mb",
            "16",
        ],
        "server_loadgen.json",
    );
    assert_eq!(
        keys(&doc),
        [
            "name",
            "mode",
            "policy",
            "ops_per_conn",
            "value_size",
            "read_pct",
            "flush_wait_ns",
            "sweep_conns",
            "sweep_ops_per_s",
            "knee_conns",
            "rows"
        ]
    );
    assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("sweep"));
    assert!([1.0, 2.0].contains(&num(&doc, "knee_conns")));
    for r in rows(&doc) {
        assert_eq!(keys(r), row_with("conns"));
    }
    assert_eq!(row_ops(&doc), [("sweep", 50), ("sweep", 100)]);
    let dump = std::fs::read_to_string(dir.join("results/contention_loadgen.txt")).unwrap();
    assert!(dump.contains("kvstore.stripe"), "{dump}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn idle_document() {
    let (dir, doc) = run_ok(
        "idle",
        &[
            "--idle-conns",
            "16",
            "--pipeline",
            "4",
            "--smoke",
            "--ops",
            "200",
            "--pool-mb",
            "16",
        ],
        "server_loadgen_idle.json",
    );
    assert_eq!(
        keys(&doc),
        [
            "name",
            "mode",
            "io_mode",
            "policy",
            "idle_conns",
            "hot_conns",
            "reactors",
            "pipeline_depth",
            "ops_per_conn",
            "value_size",
            "read_pct",
            "open_fleet_s",
            "os_threads_base",
            "os_threads_idle",
            "os_threads_load",
            "thread_budget",
            "vm_rss_kb_base",
            "vm_rss_kb_idle",
            "vm_rss_kb_load",
            "hot_ops_s",
            "rows"
        ]
    );
    assert_eq!(
        doc.get("mode").and_then(JsonValue::as_str),
        Some("idle_scaling")
    );
    assert_eq!(
        doc.get("io_mode").and_then(JsonValue::as_str),
        Some("epoll")
    );
    assert_eq!(num(&doc, "idle_conns"), 16.0);
    assert_eq!(num(&doc, "pipeline_depth"), 4.0);
    let budget = num(&doc, "reactors") + num(&doc, "hot_conns") + 8.0;
    assert_eq!(num(&doc, "thread_budget"), budget);
    assert!(num(&doc, "os_threads_load") <= budget);
    assert!(num(&doc, "hot_ops_s") > 0.0);
    for r in rows(&doc) {
        assert_eq!(keys(r), ROW);
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// A flag the chosen mode would ignore, a bad list entry or an
/// out-of-range count exits 2 before any socket, thread or file write.
#[test]
fn refused_command_lines_exit_2_and_write_nothing() {
    let dir = empty_dir("refused");
    let one = "127.0.0.1:1";
    let two = "127.0.0.1:1,127.0.0.1:2";
    for bad in [
        &["--sweep-threads", "1,2", "--addr", one][..],
        &["--idle-conns", "4", "--addr", one],
        &["--local-shards", "2", "--addr", one],
        &["--pipeline", "8", "--smoke", "--addrs", two],
        &["--pipeline", "8", "--local-shards", "2"],
        &["--addrs", two, "--local-shards", "2"],
        &["--throttle-us", "5"],
        &["--idle-conns", "4", "--pipeline", "4", "--throttle-us", "5"],
        &["--pipeline", "8", "--inject-garbage"],
        &["--local-shards", "2", "--inject-garbage"],
        &["--flush-wait-ns", "100"],
        &["--pipeline", "8", "--flush-wait-ns", "100"],
        &["--sweep-threads", "1,2", "--shutdown"],
        &["--idle-conns", "4", "--shutdown"],
        &["--sweep-threads", "1,2", "--conns", "2"],
        &["--idle-conns", "4", "--max-conns", "8"],
        &["--addr", one, "--pool-mb", "8"],
        &["--sweep-threads", "1,x,2"],
        &["--sweep-threads", "1,2,4,8", "--max-conns", "4"],
        &["--sweep-threads", "2,1"],
        &["--sweep-threads", "0,1"],
        &["--sweep-threads", "2"],
        &["--conns", "5", "--max-conns", "4"],
        &["--conns", "0"],
        &["--read-pct", "101"],
        &["--ops", "0"],
        &["--pipeline", "0"],
        &["--idle-conns", "0"],
        &["--local-shards", "0"],
        &["--addrs", "127.0.0.1:1,nope"],
        &["--addrs", one],
        &["--addr", "nope"],
    ] {
        let out = loadgen(&dir, bad);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {err}");
        assert!(out.stdout.is_empty(), "{bad:?} did work");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a refused run wrote a file"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// A daemon that is killed if the test ends before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `--shutdown` stops the daemon whatever the run's outcome: a second
/// connection over `--max-conns 1` is answered `BUSY`, so the run fails
/// (exit 1), and the daemon still gets its `SHUTDOWN` and exits 0.
#[test]
fn failed_run_still_shuts_the_daemon_down() {
    let dir = empty_dir("shutdown");
    let ready = dir.join("srv.ready");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_spp-server"))
            .args(["--port", "0", "--max-conns", "1", "--pool-mb", "16"])
            .arg("--ready-file")
            .arg(&ready)
            .current_dir(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let start = Instant::now();
    while !ready.exists() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "daemon never ready"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let addr = std::fs::read_to_string(&ready).unwrap();
    let args = ["--addr", addr.trim(), "--conns", "2", "--pipeline", "8"];
    let out = loadgen(&dir, &[&args[..], &["--smoke", "--shutdown"]].concat());
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("server busy"), "{err}");

    let start = Instant::now();
    let status = loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "daemon still serving 10 s after the failed run"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "daemon exit {status}");
    std::fs::remove_dir_all(dir).unwrap();
}
