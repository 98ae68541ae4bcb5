//! `spp-loadgen`: a `db_bench`-style closed-loop load generator for
//! `spp-server`.
//!
//! ```text
//! spp-loadgen [--addr HOST:PORT] [--policy pmdk|spp|safepm]
//!             [--conns 4] [--ops 20000] [--value-size 100] [--read-pct 50]
//!             [--pool-mb 64] [--nbuckets 4096] [--max-conns 64]
//!             [--smoke] [--shutdown] [--inject-garbage]
//!             [--sweep-threads 1,2,4,8] [--flush-wait-ns 15000]
//!             [--pipeline 8] [--throttle-us 0]
//!             [--reactors 2] [--idle-conns 2000]
//!             [--addrs HOST:PORT,HOST:PORT,...] [--local-shards N]
//! ```
//!
//! `--addrs a,b,c` switches to multi-endpoint mode (see [`run_multi`]):
//! the loadgen builds the same consistent-hash [`Ring`] the server crate
//! uses — from nothing but the endpoint count — and routes every key to
//! its owning endpoint, exactly as a smart client fronts a sharded
//! deployment. The report breaks throughput down per shard and records
//! the skew (max/mean ops); `--local-shards N` spawns N in-process
//! single-shard servers instead, for the self-contained CI smoke.
//!
//! `--reactors` sizes the in-process server's front end for any mode.
//! `--idle-conns N` switches to idle-scaling mode (see [`run_idle`]): N
//! open-but-quiet connections are parked on the server while a small hot
//! core drives pipelined load; the run reports process thread count and
//! RSS with the idle fleet attached, and self-validates that threads
//! stayed O(reactors), not O(connections).
//!
//! `--sweep-threads` switches to thread-sweep mode: one fresh in-process
//! server per connection count on device-wait media, where each fence that
//! drains its thread's flushes waits `--flush-wait-ns`, reporting ops/s per
//! point and the throughput knee (see [`run_sweep`]).
//!
//! `--pipeline N` switches to pipeline-comparison mode (see
//! [`run_pipeline`]): a closed-loop round-trip phase, then a phase where
//! each connection ships batches of `N` operations — alternating `MULTI`
//! frames (one atomic group-committed batch) and raw pipelined frames —
//! and the report records round-trip vs pipelined throughput plus their
//! ratio. The run self-validates that ratio against a floor unless
//! `--throttle-us` deliberately slows the pipelined phase (the hook CI's
//! perf-gate self-test uses to prove the gate is not blind).
//!
//! Without `--addr`, an in-process server (ephemeral port, `--policy`) is
//! spawned and measured — the one-command mode CI and `EXPERIMENTS.md`
//! use. Each connection runs a closed loop of `--ops` operations
//! (`--read-pct`% GETs over previously-written keys, the rest durable
//! PUTs); an admitted connection is never answered `BUSY`, so one is an
//! error like any other. The run reports throughput and p50/p95/p99
//! latency per operation class, writes `results/server_loadgen.json`, and
//! self-validates the rows through `spp-bench`'s `validate_rows` — empty
//! or non-finite results exit nonzero (`--inject-garbage` deliberately
//! poisons a row so CI can prove that path stays red).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spp_bench::{banner, validate_rows, write_text_artifact, Args, Json, Opt};
use spp_pm::contention;
use spp_server::{
    fresh_server_pool, fresh_server_pool_wait, raise_nofile_limit, Client, KvEngine, PolicyKind,
    Reply, Request, Ring, Server, ServerConfig,
};

const KEY_SIZE: usize = 16;

/// Log-linear histogram resolution: sub-buckets per power of two. 32 keeps
/// the quantile error under ~3%.
const HIST_SUB_BITS: u32 = 5;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;
/// Buckets 0..2*HIST_SUB are exact (ns < 64); above that, each power of two
/// splits into `HIST_SUB` linear sub-buckets up to the full u64 range.
const HIST_BUCKETS: usize =
    (2 * HIST_SUB as usize) + (63 - HIST_SUB_BITS as usize) * HIST_SUB as usize;

fn bucket_of(ns: u64) -> usize {
    if ns < 2 * HIST_SUB {
        return ns as usize;
    }
    let msb = 63 - u64::from(ns.leading_zeros());
    let shift = msb - u64::from(HIST_SUB_BITS);
    let sub = (ns >> shift) - HIST_SUB;
    (2 * HIST_SUB + (msb - u64::from(HIST_SUB_BITS) - 1) * HIST_SUB + sub) as usize
}

/// Midpoint of a bucket's value range, in nanoseconds.
fn bucket_rep(idx: usize) -> u64 {
    if idx < 2 * HIST_SUB as usize {
        return idx as u64;
    }
    let off = idx as u64 - 2 * HIST_SUB;
    let group = off / HIST_SUB;
    let sub = off % HIST_SUB;
    let shift = group + 1;
    ((HIST_SUB + sub) << shift) + (1 << shift) / 2
}

/// Nanosecond latency distribution for one operation class: a fixed-footprint
/// log-linear histogram. Each connection thread fills its own and the driver
/// merges them bucket-wise — O(1) per sample, O(`HIST_BUCKETS`) per merge —
/// replacing the per-operation `Vec<u64>` that previously grew (and
/// reallocated) once per request for the whole run.
struct Lats {
    count: u64,
    buckets: Box<[u64]>,
}

impl Default for Lats {
    fn default() -> Self {
        Lats {
            count: 0,
            buckets: vec![0u64; HIST_BUCKETS].into_boxed_slice(),
        }
    }
}

impl Lats {
    fn push(&mut self, d: Duration) {
        self.buckets[bucket_of(d.as_nanos() as u64)] += 1;
        self.count += 1;
    }

    fn merge(&mut self, other: &Lats) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
    }

    fn percentile_us(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((self.count - 1) as f64 * p).round() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return bucket_rep(idx) as f64 / 1_000.0;
            }
        }
        f64::NAN
    }
}

struct ConnResult {
    puts: Lats,
    gets: Lats,
}

fn key_of(conn: u32, seq: u64) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..4].copy_from_slice(&conn.to_be_bytes());
    k[4..12].copy_from_slice(&seq.to_be_bytes());
    k
}

/// Closed-loop worker: `ops` operations, `read_pct`% GETs over keys this
/// connection already wrote.
fn run_conn(
    addr: std::net::SocketAddr,
    conn_id: u32,
    ops: u64,
    value: &[u8],
    read_pct: u32,
) -> Result<ConnResult, String> {
    let mut client = Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("conn {conn_id}: connect: {e}"))?;
    let mut res = ConnResult {
        puts: Lats::default(),
        gets: Lats::default(),
    };
    let mut written: u64 = 0;
    // Per-connection xorshift for the op mix and GET key choice.
    let mut x: u64 = 0x9e37_79b9 ^ u64::from(conn_id) << 17 | 1;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(value.len());
    for _ in 0..ops {
        let is_get = written > 0 && (rng() % 100) < u64::from(read_pct);
        if is_get {
            let key = key_of(conn_id, rng() % written);
            let start = Instant::now();
            out.clear();
            let hit = client
                .get(&key, &mut out)
                .map_err(|e| format!("conn {conn_id}: GET: {e}"))?;
            res.gets.push(start.elapsed());
            if !hit {
                return Err(format!("conn {conn_id}: GET missed an acked key"));
            }
        } else {
            let key = key_of(conn_id, written);
            let start = Instant::now();
            client
                .put(&key, value)
                .map_err(|e| format!("conn {conn_id}: PUT: {e}"))?;
            res.puts.push(start.elapsed());
            written += 1;
        }
    }
    Ok(res)
}

/// Pipelined worker: the same op mix as [`run_conn`], but shipped in
/// batches of `depth` without waiting per op. Batches alternate between a
/// `MULTI` frame (one atomic, group-committed unit) and raw back-to-back
/// pipelined frames, so both framings are measured. Batch latency is
/// attributed evenly across the batch's ops.
fn run_conn_pipelined(
    addr: std::net::SocketAddr,
    conn_id: u32,
    ops: u64,
    value: &[u8],
    read_pct: u32,
    depth: usize,
    throttle: Duration,
) -> Result<ConnResult, String> {
    let mut client = Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("conn {conn_id}: connect: {e}"))?;
    let mut res = ConnResult {
        puts: Lats::default(),
        gets: Lats::default(),
    };
    let mut written: u64 = 0;
    let mut x: u64 = 0x9e37_79b9 ^ u64::from(conn_id) << 17 | 1;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut done: u64 = 0;
    let mut batch_no: u64 = 0;
    while done < ops {
        let n = depth.min((ops - done) as usize).max(1);
        // Plan the batch up front: a GET may target a key whose PUT sits
        // earlier in the same batch — the server's run execution
        // guarantees reads observe earlier writes of the run.
        let mut plan: Vec<(bool, [u8; KEY_SIZE])> = Vec::with_capacity(n);
        let mut w = written;
        for _ in 0..n {
            let is_get = w > 0 && (rng() % 100) < u64::from(read_pct);
            if is_get {
                plan.push((true, key_of(conn_id, rng() % w)));
            } else {
                plan.push((false, key_of(conn_id, w)));
                w += 1;
            }
        }
        let reqs: Vec<Request<'_>> = plan
            .iter()
            .map(|(is_get, key)| {
                if *is_get {
                    Request::Get { key }
                } else {
                    Request::Put { key, value }
                }
            })
            .collect();
        let start = Instant::now();
        let replies = if batch_no.is_multiple_of(2) {
            client.multi(&reqs)
        } else {
            client.pipeline(&reqs)
        }
        .map_err(|e| format!("conn {conn_id}: batch: {e}"))?;
        let per_op = start.elapsed() / n as u32;
        for ((is_get, _), reply) in plan.iter().zip(&replies) {
            match (is_get, reply) {
                (true, Reply::Value(v)) if v == value => res.gets.push(per_op),
                (false, Reply::Ok) => res.puts.push(per_op),
                _ => {
                    return Err(format!(
                        "conn {conn_id}: unexpected batch reply {reply:?} (get={is_get})"
                    ))
                }
            }
        }
        written = w;
        done += n as u64;
        batch_no += 1;
        if throttle > Duration::ZERO {
            std::thread::sleep(throttle);
        }
    }
    Ok(res)
}

/// Multi-endpoint worker: the [`run_conn`] op mix, but each key is routed
/// through the client-side [`Ring`] to the endpoint that owns it — one
/// open connection per endpoint. Routing is deterministic, so a GET for a
/// previously-acked key always lands on the endpoint that took the PUT.
/// Returns the all-op latency distribution per endpoint, in endpoint order.
fn run_conn_multi(
    endpoints: Arc<Vec<std::net::SocketAddr>>,
    ring: Arc<Ring>,
    conn_id: u32,
    ops: u64,
    value: &[u8],
    read_pct: u32,
) -> Result<Vec<Lats>, String> {
    let mut clients = Vec::with_capacity(endpoints.len());
    for (s, addr) in endpoints.iter().enumerate() {
        clients.push(
            Client::connect_retry(*addr, Duration::from_secs(5))
                .map_err(|e| format!("conn {conn_id}: connect shard {s} ({addr}): {e}"))?,
        );
    }
    let mut per_shard: Vec<Lats> = (0..endpoints.len()).map(|_| Lats::default()).collect();
    let mut written: u64 = 0;
    let mut x: u64 = 0x9e37_79b9 ^ u64::from(conn_id) << 17 | 1;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(value.len());
    for _ in 0..ops {
        let is_get = written > 0 && (rng() % 100) < u64::from(read_pct);
        let key = if is_get {
            key_of(conn_id, rng() % written)
        } else {
            key_of(conn_id, written)
        };
        let shard = ring.shard_of(&key) as usize;
        let client = &mut clients[shard];
        let start = Instant::now();
        if is_get {
            out.clear();
            let hit = client
                .get(&key, &mut out)
                .map_err(|e| format!("conn {conn_id}: GET shard {shard}: {e}"))?;
            if !hit {
                return Err(format!(
                    "conn {conn_id}: shard {shard} missed an acked key — \
                     client ring disagrees with placement"
                ));
            }
        } else {
            client
                .put(&key, value)
                .map_err(|e| format!("conn {conn_id}: PUT shard {shard}: {e}"))?;
            written += 1;
        }
        per_shard[shard].push(start.elapsed());
    }
    Ok(per_shard)
}

/// Multi-endpoint mode (`--addrs a,b,c` / `--local-shards N`): drive a
/// sharded deployment through a client-side ring and report how evenly
/// the ring spread real traffic. One row per shard; the headline skew is
/// `max/mean` of per-shard op counts (1.0 = perfectly even). The run
/// self-validates through `validate_rows` and fails if any shard saw no
/// traffic — a starved shard means client and server rings disagree.
fn run_multi(
    args: &Args,
    endpoints: Vec<std::net::SocketAddr>,
    mut local: Vec<Server>,
) -> Result<(), String> {
    let smoke = args.flag("smoke");
    let policy: PolicyKind = args.get("policy", PolicyKind::Spp);
    let conns: u32 = args.get("conns", if smoke { 2 } else { 4 });
    let ops: u64 = args.get("ops", if smoke { 500 } else { 20_000 });
    let value_size: usize = args.get("value-size", if smoke { 64 } else { 100 });
    let read_pct: u32 = args.get("read-pct", 50).min(100);
    let nshards = endpoints.len();

    banner(&format!(
        "spp-loadgen multi: {nshards} endpoints conns={conns} ops/conn={ops} \
         value={value_size}B reads={read_pct}%"
    ));
    for (s, addr) in endpoints.iter().enumerate() {
        println!("  shard {s} -> {addr}");
    }

    let endpoints = Arc::new(endpoints);
    let ring = Arc::new(Ring::new(nshards as u32));
    let value = vec![0xA5u8; value_size];
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|conn_id| {
            let endpoints = Arc::clone(&endpoints);
            let ring = Arc::clone(&ring);
            let value = value.clone();
            std::thread::spawn(move || {
                run_conn_multi(endpoints, ring, conn_id, ops, &value, read_pct)
            })
        })
        .collect();
    let mut per_shard: Vec<Lats> = (0..nshards).map(|_| Lats::default()).collect();
    for h in handles {
        let r = h.join().map_err(|_| "loadgen thread panicked")??;
        for (acc, lats) in per_shard.iter_mut().zip(&r) {
            acc.merge(lats);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    let counts: Vec<u64> = per_shard.iter().map(|l| l.count).collect();
    let total: u64 = counts.iter().sum();
    let mean = total as f64 / nshards as f64;
    let skew = counts.iter().copied().max().unwrap_or(0) as f64 / mean;
    for (s, lats) in per_shard.iter().enumerate() {
        println!(
            "  shard {s}: {:>8} ops  {:>10.0} ops/s  p50={:.1}us p99={:.1}us",
            lats.count,
            lats.count as f64 / elapsed,
            lats.percentile_us(0.50),
            lats.percentile_us(0.99),
        );
    }
    println!(
        "total: {total} ops in {elapsed:.3}s = {:.0} ops/s  shard skew (max/mean): {skew:.2}",
        total as f64 / elapsed
    );
    if let Some(starved) = counts.iter().position(|&c| c == 0) {
        return Err(format!(
            "shard {starved} received no traffic — client ring and deployment disagree"
        ));
    }

    let mut rows = Vec::with_capacity(nshards);
    for (s, lats) in per_shard.iter().enumerate() {
        let mut row = lat_row(policy, "multi_shard", lats, elapsed);
        if let Json::Obj(fields) = &mut row {
            fields.insert(2, ("shard", Json::Int(s as u64)));
        }
        rows.push(row);
    }
    for row in &rows {
        println!("{}", row.render());
    }
    validate_rows(
        &rows,
        &["throughput_ops_s", "p50_us", "p95_us", "p99_us", "ops"],
    )
    .map_err(|e| format!("result validation failed: {e}"))?;

    let doc = Json::Obj(vec![
        ("name", Json::Str("server_loadgen".to_string())),
        ("mode", Json::Str("multi".to_string())),
        ("policy", Json::Str(policy.label().to_string())),
        ("shards", Json::Int(nshards as u64)),
        ("conns", Json::Int(u64::from(conns))),
        ("ops_per_conn", Json::Int(ops)),
        ("value_size", Json::Int(value_size as u64)),
        ("read_pct", Json::Int(u64::from(read_pct))),
        ("elapsed_s", Json::Num(elapsed)),
        ("total_ops_s", Json::Num(total as f64 / elapsed)),
        (
            "shard_ops",
            Json::Arr(counts.iter().map(|&c| Json::Int(c)).collect()),
        ),
        ("shard_skew_max_over_mean", Json::Num(skew)),
        ("rows", Json::Arr(rows)),
    ]);
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("create results/: {e}"))?;
    let path = dir.join("server_loadgen.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {}", path.display());

    if args.flag("shutdown") && local.is_empty() {
        for addr in endpoints.iter() {
            let mut c = Client::connect_retry(*addr, Duration::from_secs(5))
                .map_err(|e| format!("shutdown connect {addr}: {e}"))?;
            c.shutdown().map_err(|e| format!("SHUTDOWN {addr}: {e}"))?;
        }
    }
    for server in local.drain(..) {
        server.shutdown();
    }
    Ok(())
}

/// An in-process server on an ephemeral port over a fresh pool of
/// `--pool-mb` (default `pool_mb`), tuned by the shared flags.
fn local_server(args: &Args, policy: PolicyKind, pool_mb: u64) -> Result<Server, String> {
    let pool = fresh_server_pool(args.get("pool-mb", pool_mb) << 20, 16, false)
        .map_err(|e| format!("pool create: {e}"))?;
    let engine = KvEngine::create(pool, policy, args.get("nbuckets", 4096))
        .map_err(|e| format!("engine create: {e}"))?;
    let cfg = ServerConfig {
        max_conns: args.get("max-conns", 64),
        reactors: args.get("reactors", 2),
        ..ServerConfig::default()
    };
    Server::start(Arc::new(engine), ("127.0.0.1", 0), cfg)
        .map_err(|e| format!("in-process server: {e}"))
}

struct PhaseOut {
    elapsed_s: f64,
    puts: Lats,
    gets: Lats,
    /// `(batches, ops)` group-commit counters — in-process servers only.
    group: Option<(u64, u64)>,
}

/// Run one measurement phase: `depth == 0` is the closed-loop round-trip
/// baseline, `depth > 0` ships pipelined batches. Spawns a fresh in-process
/// server unless `addr_arg` names an external one (then `conn_base` keeps
/// the phases' keyspaces disjoint).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    args: &Args,
    policy: PolicyKind,
    addr_arg: &str,
    conn_base: u32,
    conns: u32,
    ops: u64,
    value: &[u8],
    read_pct: u32,
    depth: usize,
    throttle: Duration,
) -> Result<PhaseOut, String> {
    let mut local: Option<Server> = None;
    let addr: std::net::SocketAddr = if addr_arg.is_empty() {
        let server = local_server(args, policy, 64)?;
        let addr = server.local_addr();
        local = Some(server);
        addr
    } else {
        addr_arg
            .parse()
            .map_err(|e| format!("bad --addr `{addr_arg}`: {e}"))?
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            let value = value.to_vec();
            std::thread::spawn(move || {
                if depth == 0 {
                    run_conn(addr, conn_base + i, ops, &value, read_pct)
                } else {
                    run_conn_pipelined(addr, conn_base + i, ops, &value, read_pct, depth, throttle)
                }
            })
        })
        .collect();
    let mut puts = Lats::default();
    let mut gets = Lats::default();
    for h in handles {
        let r = h.join().map_err(|_| "loadgen thread panicked")??;
        puts.merge(&r.puts);
        gets.merge(&r.gets);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let group = local.as_ref().map(Server::group_stats);
    if let Some(server) = local.take() {
        server.shutdown();
    }
    Ok(PhaseOut {
        elapsed_s,
        puts,
        gets,
        group,
    })
}

/// Pipeline-comparison mode (`--pipeline N`): round-trip baseline phase,
/// then a pipelined phase at depth `N`, reporting both throughputs and
/// their ratio. Exits nonzero if the speedup misses the floor (2.0x full,
/// 1.5x smoke) — unless `--throttle-us` is deliberately degrading the run
/// for the perf-gate's injected-regression self-test.
fn run_pipeline(args: &Args, depth: usize) -> Result<(), String> {
    let smoke = args.flag("smoke");
    let policy: PolicyKind = args.get("policy", PolicyKind::Spp);
    let conns: u32 = args.get("conns", if smoke { 2 } else { 4 });
    let ops: u64 = args.get("ops", if smoke { 500 } else { 20_000 });
    let value_size: usize = args.get("value-size", if smoke { 64 } else { 100 });
    let read_pct: u32 = args.get("read-pct", 50).min(100);
    let addr_arg: String = args.get("addr", String::new());
    let throttle = Duration::from_micros(args.get("throttle-us", 0u64));

    banner(&format!(
        "spp-loadgen pipeline: policy={} depth={depth} conns={conns} ops/conn={ops} \
         value={value_size}B reads={read_pct}%",
        policy.label()
    ));
    let value = vec![0xA5u8; value_size];

    let rt = run_phase(
        args,
        policy,
        &addr_arg,
        0,
        conns,
        ops,
        &value,
        read_pct,
        0,
        Duration::ZERO,
    )?;
    let rt_tput = (rt.puts.count + rt.gets.count) as f64 / rt.elapsed_s;
    println!(
        "round-trip: {rt_tput:>10.0} ops/s  p50={:.1}us p99={:.1}us",
        rt.puts.percentile_us(0.50),
        rt.puts.percentile_us(0.99),
    );

    let pl = run_phase(
        args,
        policy,
        &addr_arg,
        1 << 20,
        conns,
        ops,
        &value,
        read_pct,
        depth,
        throttle,
    )?;
    let pl_tput = (pl.puts.count + pl.gets.count) as f64 / pl.elapsed_s;
    println!(
        "pipelined:  {pl_tput:>10.0} ops/s  p50={:.1}us p99={:.1}us",
        pl.puts.percentile_us(0.50),
        pl.puts.percentile_us(0.99),
    );
    if let Some((batches, gops)) = pl.group {
        let avg = if batches > 0 {
            gops as f64 / batches as f64
        } else {
            0.0
        };
        println!(
            "group commit: {gops} write ops over {batches} boundaries ({avg:.1} ops/boundary)"
        );
    }

    let speedup = pl_tput / rt_tput;
    println!("pipeline speedup: {speedup:.2}x");
    let floor = if smoke { 1.5 } else { 2.0 };
    if throttle > Duration::ZERO {
        println!("throttled run ({throttle:?}/batch): speedup floor check skipped");
    } else if speedup < floor {
        return Err(format!(
            "pipeline speedup {speedup:.2}x under the {floor:.1}x floor — batching regressed"
        ));
    }

    let mut rows = vec![
        lat_row(policy, "put_roundtrip", &rt.puts, rt.elapsed_s),
        lat_row(policy, "put_pipelined", &pl.puts, pl.elapsed_s),
    ];
    if rt.gets.count > 0 {
        rows.push(lat_row(policy, "get_roundtrip", &rt.gets, rt.elapsed_s));
    }
    if pl.gets.count > 0 {
        rows.push(lat_row(policy, "get_pipelined", &pl.gets, pl.elapsed_s));
    }
    for row in &rows {
        println!("{}", row.render());
    }
    validate_rows(
        &rows,
        &["throughput_ops_s", "p50_us", "p95_us", "p99_us", "ops"],
    )
    .map_err(|e| format!("result validation failed: {e}"))?;

    let (group_batches, group_ops) = pl.group.unwrap_or((0, 0));
    let doc = Json::Obj(vec![
        ("name", Json::Str("server_loadgen".to_string())),
        ("mode", Json::Str("pipeline".to_string())),
        ("policy", Json::Str(policy.label().to_string())),
        ("pipeline_depth", Json::Int(depth as u64)),
        ("conns", Json::Int(u64::from(conns))),
        ("ops_per_conn", Json::Int(ops)),
        ("value_size", Json::Int(value_size as u64)),
        ("read_pct", Json::Int(u64::from(read_pct))),
        ("throttle_us", Json::Int(throttle.as_micros() as u64)),
        ("roundtrip_ops_s", Json::Num(rt_tput)),
        ("pipelined_ops_s", Json::Num(pl_tput)),
        ("pipeline_speedup", Json::Num(speedup)),
        ("group_batches", Json::Int(group_batches)),
        ("group_batched_ops", Json::Int(group_ops)),
        ("rows", Json::Arr(rows)),
    ]);
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("create results/: {e}"))?;
    let path = dir.join("server_loadgen.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {}", path.display());

    // Both phases already tore down their in-process servers; --shutdown
    // only matters against an external --addr server (the CI smoke job
    // ends each policy's serving round through this).
    if args.flag("shutdown") && !addr_arg.is_empty() {
        let mut client = Client::connect_retry(&addr_arg, Duration::from_secs(5))
            .map_err(|e| format!("shutdown connect: {e}"))?;
        client.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
    }
    Ok(())
}

fn lat_row(policy: PolicyKind, op: &'static str, lats: &Lats, elapsed_s: f64) -> Json {
    Json::Obj(vec![
        ("policy", Json::Str(policy.label().to_string())),
        ("op", Json::Str(op.to_string())),
        ("ops", Json::Int(lats.count)),
        ("throughput_ops_s", Json::Num(lats.count as f64 / elapsed_s)),
        ("p50_us", Json::Num(lats.percentile_us(0.50))),
        ("p95_us", Json::Num(lats.percentile_us(0.95))),
        ("p99_us", Json::Num(lats.percentile_us(0.99))),
    ])
}

/// Thread-sweep mode (`--sweep-threads 1,2,4,8`): one fresh in-process
/// server per connection count, all on device-wait media, reporting where
/// the throughput knee sits. Each point's row lands in
/// `results/server_loadgen.json` with `op: "sweep"`; the contention profile
/// accumulated across the sweep is dumped to
/// `results/contention_loadgen.txt`.
fn run_sweep(args: &Args, sweep_csv: &str) -> Result<(), String> {
    let smoke = args.flag("smoke");
    let policy: PolicyKind = args.get("policy", PolicyKind::Pmdk);
    let ops: u64 = args.get("ops", if smoke { 300 } else { 4_000 });
    let value_size: usize = args.get("value-size", if smoke { 64 } else { 100 });
    let read_pct: u32 = args.get("read-pct", 50).min(100);
    let flush_wait_ns: u32 = args.get("flush-wait-ns", 15_000);
    let conn_counts: Vec<u32> = sweep_csv
        .split(',')
        .filter_map(|t| t.parse().ok())
        .collect();
    if conn_counts.len() < 2 {
        return Err(format!(
            "--sweep-threads needs >= 2 counts, got `{sweep_csv}`"
        ));
    }

    banner(&format!(
        "spp-loadgen sweep: policy={} conns={conn_counts:?} ops/conn={ops} \
         value={value_size}B reads={read_pct}% flush-wait={flush_wait_ns}ns",
        policy.label()
    ));

    contention::reset_all();
    let value = vec![0xA5u8; value_size];
    let mut rows = Vec::new();
    let mut tputs: Vec<f64> = Vec::new();
    for &conns in &conn_counts {
        let pool = fresh_server_pool_wait(args.get("pool-mb", 64u64) << 20, 16, flush_wait_ns)
            .map_err(|e| format!("pool create: {e}"))?;
        let pm = Arc::clone(pool.pm());
        let engine = Arc::new(
            KvEngine::create(pool, policy, args.get("nbuckets", 4096))
                .map_err(|e| format!("engine create: {e}"))?,
        );
        let cfg = ServerConfig {
            max_conns: args.get("max-conns", 64),
            reactors: args.get("reactors", 2),
            ..ServerConfig::default()
        };
        let server = Server::start(engine, ("127.0.0.1", 0), cfg)
            .map_err(|e| format!("in-process server: {e}"))?;
        let addr = server.local_addr();
        pm.set_latency_enabled(true);

        let start = Instant::now();
        let handles: Vec<_> = (0..conns)
            .map(|conn_id| {
                let value = value.clone();
                std::thread::spawn(move || run_conn(addr, conn_id, ops, &value, read_pct))
            })
            .collect();
        let mut all = Lats::default();
        for h in handles {
            let r = h.join().map_err(|_| "loadgen thread panicked")??;
            all.merge(&r.puts);
            all.merge(&r.gets);
        }
        let elapsed = start.elapsed().as_secs_f64();
        server.shutdown();

        let tput = all.count as f64 / elapsed;
        println!(
            "  conns={conns:<3} {tput:>10.0} ops/s  p50={:>8.1}us  p99={:>8.1}us",
            all.percentile_us(0.50),
            all.percentile_us(0.99),
        );
        let mut row = lat_row(policy, "sweep", &all, elapsed);
        if let Json::Obj(fields) = &mut row {
            fields.insert(2, ("conns", Json::Int(u64::from(conns))));
        }
        rows.push(row);
        tputs.push(tput);
    }

    // The knee: the last connection count that still bought >= 10% more
    // throughput than the previous point.
    let mut knee = conn_counts[0];
    for i in 1..tputs.len() {
        if tputs[i] >= tputs[i - 1] * 1.10 {
            knee = conn_counts[i];
        } else {
            break;
        }
    }
    println!("throughput knee at {knee} connections");
    println!("top contended locks during the sweep:");
    for snap in contention::top_contended(3) {
        println!(
            "  {:<16} {:>8} acq  {:>6.2}% contended  {:>8.2}ms waited",
            snap.name,
            snap.acquisitions,
            snap.contended_fraction() * 100.0,
            snap.wait_ns as f64 / 1e6,
        );
    }
    let dump_path = write_text_artifact("contention_loadgen.txt", &contention::dump());
    println!("contention dump written to {}", dump_path.display());

    validate_rows(
        &rows,
        &[
            "throughput_ops_s",
            "p50_us",
            "p95_us",
            "p99_us",
            "ops",
            "conns",
        ],
    )
    .map_err(|e| format!("sweep validation failed: {e}"))?;

    let doc = Json::Obj(vec![
        ("name", Json::Str("server_loadgen".to_string())),
        ("mode", Json::Str("sweep".to_string())),
        ("policy", Json::Str(policy.label().to_string())),
        ("ops_per_conn", Json::Int(ops)),
        ("value_size", Json::Int(value_size as u64)),
        ("read_pct", Json::Int(u64::from(read_pct))),
        ("flush_wait_ns", Json::Int(u64::from(flush_wait_ns))),
        (
            "sweep_conns",
            Json::Arr(
                conn_counts
                    .iter()
                    .map(|&c| Json::Int(u64::from(c)))
                    .collect(),
            ),
        ),
        (
            "sweep_ops_per_s",
            Json::Arr(tputs.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("knee_conns", Json::Int(u64::from(knee))),
        ("rows", Json::Arr(rows)),
    ]);
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("create results/: {e}"))?;
    let path = dir.join("server_loadgen.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `(threads, vm_rss_kb)` for this process, from `/proc/self/status`;
/// `(0, 0)` when procfs is unavailable (the caller treats that as
/// "cannot self-validate", not as a pass).
fn proc_status() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

/// Idle-scaling mode (`--idle-conns N`): park N open-but-quiet
/// connections on a fresh in-process server, then drive pipelined load
/// over a small hot core and report what the idle fleet actually cost —
/// process thread count and RSS with the fleet attached, plus hot-path
/// p50/p99 — and finally ping every idle connection to prove the fleet
/// stayed serviceable. The run **self-validates** the headline claim:
/// total threads stay within `reactors + hot + slack`: O(reactors), not
/// O(connections) nor O(shards).
fn run_idle(args: &Args, idle_conns: u32) -> Result<(), String> {
    let smoke = args.flag("smoke");
    let policy: PolicyKind = args.get("policy", PolicyKind::Spp);
    let reactors: usize = args.get("reactors", 2);
    let hot: u32 = args.get("conns", 2);
    let ops: u64 = args.get("ops", if smoke { 400 } else { 4_000 });
    let depth: usize = args.get("pipeline", 8usize).max(1);
    let value_size: usize = args.get("value-size", if smoke { 64 } else { 100 });
    let read_pct: u32 = args.get("read-pct", 50).min(100);

    // The fd limit, not memory, is the usual first wall at thousands of
    // sockets; raise it before opening anything.
    let nofile = raise_nofile_limit();
    let need = u64::from(idle_conns) + u64::from(hot) + 64;
    if nofile < need {
        return Err(format!(
            "RLIMIT_NOFILE {nofile} too low for {idle_conns} idle connections (need ~{need})"
        ));
    }

    banner(&format!(
        "spp-loadgen idle-scaling: policy={} idle={idle_conns} hot={hot} \
         depth={depth} ops/hot-conn={ops}",
        policy.label()
    ));

    let pool = fresh_server_pool(args.get("pool-mb", 64u64) << 20, 16, false)
        .map_err(|e| format!("pool create: {e}"))?;
    let engine = Arc::new(
        KvEngine::create(pool, policy, args.get("nbuckets", 4096))
            .map_err(|e| format!("engine create: {e}"))?,
    );
    let cfg = ServerConfig {
        max_conns: idle_conns as usize + hot as usize + 8,
        reactors,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, ("127.0.0.1", 0), cfg)
        .map_err(|e| format!("in-process server: {e}"))?;
    let addr = server.local_addr();
    let (threads_base, rss_base_kb) = proc_status();

    // Park the idle fleet. Each connection proves it was admitted and
    // served (one PING) before going quiet.
    let open_start = Instant::now();
    let mut idle: Vec<Client> = Vec::with_capacity(idle_conns as usize);
    for i in 0..idle_conns {
        let mut c = Client::connect_retry(addr, Duration::from_secs(10))
            .map_err(|e| format!("idle conn {i}: connect: {e}"))?;
        c.ping().map_err(|e| format!("idle conn {i}: ping: {e}"))?;
        idle.push(c);
    }
    let open_s = open_start.elapsed().as_secs_f64();
    let (threads_idle, rss_idle_kb) = proc_status();
    println!(
        "idle fleet up: {idle_conns} conns in {open_s:.2}s  threads {threads_base} -> \
         {threads_idle}  rss {rss_base_kb} -> {rss_idle_kb} kB"
    );

    // Hot pipelined core over the parked fleet.
    let value = vec![0xA5u8; value_size];
    let start = Instant::now();
    let handles: Vec<_> = (0..hot)
        .map(|i| {
            let value = value.clone();
            std::thread::spawn(move || {
                run_conn_pipelined(
                    addr,
                    (1 << 20) + i,
                    ops,
                    &value,
                    read_pct,
                    depth,
                    Duration::ZERO,
                )
            })
        })
        .collect();
    // Sample the thread count while the hot core is actually running —
    // that is the moment the claim is about.
    std::thread::sleep(Duration::from_millis(50));
    let (threads_load, rss_load_kb) = proc_status();
    let mut puts = Lats::default();
    let mut gets = Lats::default();
    for h in handles {
        let r = h.join().map_err(|_| "loadgen thread panicked")??;
        puts.merge(&r.puts);
        gets.merge(&r.gets);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let tput = (puts.count + gets.count) as f64 / elapsed;
    println!(
        "hot core: {tput:>10.0} ops/s  p50={:.1}us p99={:.1}us  \
         threads under load: {threads_load}  rss: {rss_load_kb} kB",
        puts.percentile_us(0.50),
        puts.percentile_us(0.99),
    );

    // The fleet must still be alive and serviceable after the load ran.
    for (i, c) in idle.iter_mut().enumerate() {
        c.ping()
            .map_err(|e| format!("idle conn {i} died while parked: {e}"))?;
    }
    println!("all {idle_conns} idle connections still answer PING");
    drop(idle);
    server.shutdown();

    // Self-validation: idle connections are epoll registrations, so total
    // threads are bounded by the reactors (which also commit), the hot
    // clients and slack for main and runtime helpers — no room for an
    // O(conns) regression to hide behind 5000 idle conns.
    let budget = (reactors + hot as usize + 8) as u64;
    if threads_load == 0 {
        return Err("procfs unavailable: cannot validate the thread budget".into());
    }
    if threads_load > budget {
        return Err(format!(
            "thread count {threads_load} exceeds budget {budget} \
             (reactors={reactors} hot={hot}): \
             threads are scaling with connections"
        ));
    }
    println!("thread budget holds: {threads_load} <= {budget}");

    let mut rows = vec![lat_row(policy, "idle_hot_put", &puts, elapsed)];
    if gets.count > 0 {
        rows.push(lat_row(policy, "idle_hot_get", &gets, elapsed));
    }
    for row in &rows {
        println!("{}", row.render());
    }
    validate_rows(
        &rows,
        &["throughput_ops_s", "p50_us", "p95_us", "p99_us", "ops"],
    )
    .map_err(|e| format!("result validation failed: {e}"))?;

    let doc = Json::Obj(vec![
        ("name", Json::Str("server_loadgen".to_string())),
        ("mode", Json::Str("idle_scaling".to_string())),
        ("io_mode", Json::Str("epoll".to_string())),
        ("policy", Json::Str(policy.label().to_string())),
        ("idle_conns", Json::Int(u64::from(idle_conns))),
        ("hot_conns", Json::Int(u64::from(hot))),
        ("reactors", Json::Int(reactors as u64)),
        ("pipeline_depth", Json::Int(depth as u64)),
        ("ops_per_conn", Json::Int(ops)),
        ("value_size", Json::Int(value_size as u64)),
        ("read_pct", Json::Int(u64::from(read_pct))),
        ("open_fleet_s", Json::Num(open_s)),
        ("os_threads_base", Json::Int(threads_base)),
        ("os_threads_idle", Json::Int(threads_idle)),
        ("os_threads_load", Json::Int(threads_load)),
        ("thread_budget", Json::Int(budget)),
        ("vm_rss_kb_base", Json::Int(rss_base_kb)),
        ("vm_rss_kb_idle", Json::Int(rss_idle_kb)),
        ("vm_rss_kb_load", Json::Int(rss_load_kb)),
        ("hot_ops_s", Json::Num(tput)),
        ("rows", Json::Arr(rows)),
    ]);
    // A sibling artifact, not `server_loadgen.json`: the pipeline and
    // sweep artifacts live there, and the perf gate pins that file to
    // `mode: "pipeline"` — idle-scaling results must not clobber them.
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("create results/: {e}"))?;
    let path = dir.join("server_loadgen_idle.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run() -> Result<(), String> {
    let args = Args::parse(&[
        Opt::value::<String>("addr"),
        Opt::value::<PolicyKind>("policy"),
        Opt::value::<u32>("conns"),
        Opt::value::<u64>("ops"),
        Opt::value::<usize>("value-size"),
        Opt::value::<u32>("read-pct"),
        Opt::value::<u64>("pool-mb"),
        Opt::value::<u64>("nbuckets"),
        Opt::value::<usize>("max-conns"),
        Opt::flag("smoke"),
        Opt::flag("shutdown"),
        Opt::flag("inject-garbage"),
        Opt::value::<String>("sweep-threads"),
        Opt::value::<u32>("flush-wait-ns"),
        Opt::value::<usize>("pipeline"),
        Opt::value::<u64>("throttle-us"),
        Opt::value::<usize>("reactors"),
        Opt::value::<u32>("idle-conns"),
        Opt::value::<String>("addrs"),
        Opt::value::<u32>("local-shards"),
    ]);
    let sweep_csv: String = args.get("sweep-threads", String::new());
    if !sweep_csv.is_empty() {
        return run_sweep(&args, &sweep_csv);
    }
    let idle_conns: u32 = args.get("idle-conns", 0u32);
    if idle_conns > 0 {
        return run_idle(&args, idle_conns);
    }
    let pipeline_depth: usize = args.get("pipeline", 0usize);
    if pipeline_depth > 0 {
        return run_pipeline(&args, pipeline_depth);
    }
    let addrs_csv: String = args.get("addrs", String::new());
    let local_shards: u32 = args.get("local-shards", 0u32);
    if !addrs_csv.is_empty() {
        let endpoints: Vec<std::net::SocketAddr> = addrs_csv
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|e| format!("bad --addrs entry `{t}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        if endpoints.len() < 2 {
            return Err("--addrs needs at least 2 endpoints (use --addr for one)".to_string());
        }
        return run_multi(&args, endpoints, Vec::new());
    }
    if local_shards > 0 {
        // Self-contained sharded deployment: one in-process single-shard
        // server per endpoint, each with its own pool.
        let policy: PolicyKind = args.get("policy", PolicyKind::Spp);
        let mut servers = Vec::with_capacity(local_shards as usize);
        let mut endpoints = Vec::with_capacity(local_shards as usize);
        for s in 0..local_shards {
            let server = local_server(&args, policy, 32).map_err(|e| format!("shard {s}: {e}"))?;
            endpoints.push(server.local_addr());
            servers.push(server);
        }
        return run_multi(&args, endpoints, servers);
    }
    let smoke = args.flag("smoke");
    let policy: PolicyKind = args.get("policy", PolicyKind::Spp);
    let conns: u32 = args.get("conns", if smoke { 2 } else { 4 });
    let ops: u64 = args.get("ops", if smoke { 500 } else { 20_000 });
    let value_size: usize = args.get("value-size", if smoke { 64 } else { 100 });
    let read_pct: u32 = args.get("read-pct", 50).min(100);
    let addr_arg: String = args.get("addr", String::new());
    let want_shutdown = args.flag("shutdown");
    let inject_garbage = args.flag("inject-garbage");

    banner(&format!(
        "spp-loadgen: policy={} conns={conns} ops/conn={ops} value={value_size}B reads={read_pct}%",
        policy.label()
    ));

    // Either measure an external server or spawn one in-process.
    let mut local: Option<Server> = None;
    let addr: std::net::SocketAddr = if addr_arg.is_empty() {
        let server = local_server(&args, policy, 64)?;
        let addr = server.local_addr();
        println!("spawned in-process server on {addr}");
        local = Some(server);
        addr
    } else {
        addr_arg
            .parse()
            .map_err(|e| format!("bad --addr `{addr_arg}`: {e}"))?
    };

    let value = vec![0xA5u8; value_size];
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|conn_id| {
            let value = value.clone();
            std::thread::spawn(move || run_conn(addr, conn_id, ops, &value, read_pct))
        })
        .collect();
    let mut puts = Lats::default();
    let mut gets = Lats::default();
    for h in handles {
        let r = h.join().map_err(|_| "loadgen thread panicked")??;
        puts.merge(&r.puts);
        gets.merge(&r.gets);
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Server-side introspection after the run (also exercises STATS).
    let mut client =
        Client::connect_retry(addr, Duration::from_secs(5)).map_err(|e| format!("stats: {e}"))?;
    let stats = client.stats().map_err(|e| format!("STATS: {e}"))?;
    println!("--- server stats ---\n{stats}--------------------");

    if want_shutdown {
        client.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
    }
    if let Some(server) = local.take() {
        // Idempotent with a wire-initiated SHUTDOWN; quiesces the pool.
        server.shutdown();
    }

    let total_ops = (puts.count + gets.count) as f64;
    println!(
        "total: {total_ops:.0} ops in {elapsed:.3}s = {:.0} ops/s",
        total_ops / elapsed
    );
    let mut rows = vec![lat_row(policy, "put", &puts, elapsed)];
    if gets.count > 0 {
        rows.push(lat_row(policy, "get", &gets, elapsed));
    }
    for row in &rows {
        println!("{}", row.render());
    }
    if inject_garbage {
        // Negative CI hook: a poisoned row must make validation fail.
        rows.push(Json::Obj(vec![
            ("policy", Json::Str(policy.label().to_string())),
            ("op", Json::Str("garbage".to_string())),
            ("ops", Json::Int(0)),
            ("throughput_ops_s", Json::Num(f64::NAN)),
            ("p50_us", Json::Num(f64::NAN)),
            ("p95_us", Json::Num(f64::NAN)),
            ("p99_us", Json::Num(f64::NAN)),
        ]));
    }
    validate_rows(
        &rows,
        &["throughput_ops_s", "p50_us", "p95_us", "p99_us", "ops"],
    )
    .map_err(|e| format!("result validation failed: {e}"))?;

    let doc = Json::Obj(vec![
        ("name", Json::Str("server_loadgen".to_string())),
        ("policy", Json::Str(policy.label().to_string())),
        ("conns", Json::Int(u64::from(conns))),
        ("ops_per_conn", Json::Int(ops)),
        ("value_size", Json::Int(value_size as u64)),
        ("read_pct", Json::Int(u64::from(read_pct))),
        ("elapsed_s", Json::Num(elapsed)),
        ("rows", Json::Arr(rows)),
    ]);
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("create results/: {e}"))?;
    let path = dir.join("server_loadgen.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("spp-loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_in_range() {
        let mut samples: Vec<u64> = (0..64u32)
            .flat_map(|shift| {
                [0u64, 1, 3]
                    .into_iter()
                    .map(move |frac| (1u64 << shift) | (frac << shift.saturating_sub(3)))
            })
            .collect();
        samples.sort_unstable();
        let mut prev = 0usize;
        for ns in samples {
            let idx = bucket_of(ns);
            assert!(idx < HIST_BUCKETS, "ns={ns} idx={idx}");
            assert!(idx >= prev, "bucket index regressed at ns={ns}");
            prev = idx;
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_rep_lands_in_its_own_bucket() {
        for idx in 0..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_rep(idx)), idx, "idx={idx}");
        }
    }

    #[test]
    fn percentiles_track_samples_within_bucket_error() {
        let mut lats = Lats::default();
        for us in 1..=1000u64 {
            lats.push(Duration::from_micros(us));
        }
        let p50 = lats.percentile_us(0.50);
        let p99 = lats.percentile_us(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
        assert!(lats.percentile_us(1.0) >= p99);
    }

    #[test]
    fn merge_equals_pushing_into_one() {
        let mut a = Lats::default();
        let mut b = Lats::default();
        let mut whole = Lats::default();
        for i in 1..200u64 {
            let d = Duration::from_nanos(i * i * 37);
            if i % 2 == 0 {
                a.push(d);
            } else {
                b.push(d);
            }
            whole.push(d);
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(a.percentile_us(p), whole.percentile_us(p));
        }
    }

    #[test]
    fn empty_histogram_yields_nan() {
        assert!(Lats::default().percentile_us(0.5).is_nan());
    }
}
