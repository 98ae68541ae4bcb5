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
//! Every mode runs one closed loop. Each connection draws its operations
//! from one seeded generator ([`OpMix`]): `--read-pct`% GETs over keys the
//! connection already wrote, the rest durable PUTs, so a connection id
//! issues the same operations in every mode. One worker ([`run_conn`])
//! ships them as plain round trips, or at a depth as batches that
//! alternate a `MULTI` frame (one atomic, group-committed unit) and raw
//! pipelined frames; over several endpoints it routes each key through the
//! consistent-hash [`Ring`] the server crate uses, rebuilt from nothing but
//! the endpoint count. One driver ([`run_phase`]) runs `--conns` workers
//! and merges their latency histograms per endpoint and operation class.
//! An admitted connection is never answered `BUSY`, so one is an error.
//!
//! The modes differ in the servers a phase drives and in what they report.
//! Without `--addr`/`--addrs` each phase gets fresh in-process servers
//! (ephemeral ports, `--policy`, sized by `--pool-mb`, `--nbuckets`,
//! `--max-conns` and `--reactors`):
//!
//! - default: one round-trip phase, then `STATS`; writes
//!   `results/server_loadgen.json`.
//! - `--pipeline N`: a round-trip phase, then a depth-`N` phase, and their
//!   throughput ratio, which must clear a floor (2.0x full, 1.5x smoke)
//!   unless `--throttle-us` slows the pipelined phase on purpose (the
//!   perf-gate self-test that proves the gate is not blind).
//! - `--sweep-threads 1,2,4,8`: one server per connection count on
//!   device-wait media, where each fence that drains its thread's flushes
//!   waits `--flush-wait-ns`; reports ops/s per point, the throughput knee
//!   and `results/contention_loadgen.txt`.
//! - `--idle-conns N`: N open-but-quiet connections parked on one server
//!   while `--conns` hot connections run at depth `--pipeline` (8); the
//!   run checks that process threads stayed O(reactors), not
//!   O(connections), and writes `results/server_loadgen_idle.json`.
//! - `--addrs a,b,c` / `--local-shards N`: several endpoints through the
//!   client-side ring; reports per-shard throughput and the skew (max/mean
//!   ops), and a shard that saw no traffic fails the run.
//!
//! The command line is checked once, before any socket, thread or file
//! write: a flag the chosen mode would not read, a bad list entry or an
//! out-of-range count exits 2. `--shutdown` stops every external server
//! after the run, whether it passed or not. Every report self-validates
//! its rows through `spp-bench`'s `validate_rows`; `--inject-garbage`
//! poisons a round-trip row so CI can prove that path stays red.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spp_bench::{banner, validate_rows, write_text_artifact, Args, Json, List, Opt};
use spp_pm::contention;
use spp_server::{
    fresh_server_pool, fresh_server_pool_wait, raise_nofile_limit, Client, ClientError, KvEngine,
    PolicyKind, Reply, Request, Ring, Server, ServerConfig,
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

fn key_of(conn: u32, seq: u64) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..4].copy_from_slice(&conn.to_be_bytes());
    k[4..12].copy_from_slice(&seq.to_be_bytes());
    k
}

/// One connection's operations, from a per-connection xorshift: a GET of a
/// key this connection already wrote with probability `read_pct`%, else a
/// PUT of the next fresh key. The seed and the order of the `rng` calls
/// fix each connection's sequence in every mode; CI reads the first key of
/// connection 0 back from a reopened pool.
struct OpMix {
    conn_id: u32,
    read_pct: u64,
    x: u64,
    written: u64,
}

impl OpMix {
    fn new(conn_id: u32, read_pct: u32) -> OpMix {
        let x = 0x9e37_79b9 ^ u64::from(conn_id) << 17 | 1;
        OpMix {
            conn_id,
            read_pct: u64::from(read_pct),
            x,
            written: 0,
        }
    }

    fn rng(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }
}

impl Iterator for OpMix {
    /// `(is_get, key)`.
    type Item = (bool, [u8; KEY_SIZE]);

    fn next(&mut self) -> Option<Self::Item> {
        let is_get = self.written > 0 && (self.rng() % 100) < self.read_pct;
        let seq = if is_get {
            self.rng() % self.written
        } else {
            self.written += 1;
            self.written - 1
        };
        Some((is_get, key_of(self.conn_id, seq)))
    }
}

/// The closed loop each connection of a phase runs.
#[derive(Clone)]
struct Work {
    conns: u32,
    ops: u64,
    read_pct: u32,
    value: Vec<u8>,
    /// 0: one round trip per operation; N: batches of N.
    depth: usize,
    /// Sleep after each batch: the perf-gate self-test's degraded run.
    throttle: Duration,
}

/// Latencies per endpoint, split by class: `[puts, gets]`.
type PerEndpoint = Vec<[Lats; 2]>;

/// One connection: `w.ops` operations of its [`OpMix`] over one client per
/// endpoint. At depth 0 each operation is a round trip, routed through the
/// ring when there are several endpoints (a GET of an acked key lands where
/// its PUT did). At depth N they go to the first endpoint in batches of N,
/// alternating `MULTI` and raw pipelined frames, and a batch's latency is
/// attributed evenly to its operations.
fn run_conn(endpoints: &[SocketAddr], conn_id: u32, w: &Work) -> Result<PerEndpoint, String> {
    let mut clients = Vec::with_capacity(endpoints.len());
    for addr in endpoints {
        clients.push(
            Client::connect_retry(*addr, Duration::from_secs(5))
                .map_err(|e| format!("conn {conn_id}: connect {addr}: {e}"))?,
        );
    }
    let ring = (endpoints.len() > 1).then(|| Ring::new(endpoints.len() as u32));
    let mut lats: PerEndpoint = endpoints.iter().map(|_| Default::default()).collect();
    let mut mix = OpMix::new(conn_id, w.read_pct);
    if w.depth == 0 {
        let mut out = Vec::with_capacity(w.value.len());
        for (is_get, key) in mix.take(w.ops as usize) {
            let ep = ring.as_ref().map_or(0, |r| r.shard_of(&key) as usize);
            let start = Instant::now();
            let hit = if is_get {
                out.clear();
                clients[ep].get(&key, &mut out)
            } else {
                clients[ep].put(&key, &w.value).map(|()| true)
            };
            lats[ep][usize::from(is_get)].push(start.elapsed());
            let op = if is_get { "GET" } else { "PUT" };
            let addr = endpoints[ep];
            if !hit.map_err(|e| format!("conn {conn_id}: {op} {addr}: {e}"))? {
                return Err(format!("conn {conn_id}: GET {addr} missed an acked key"));
            }
        }
        return Ok(lats);
    }
    let mut left = w.ops;
    let mut multi = true;
    while left > 0 {
        let n = w.depth.min(left as usize);
        // Planned up front: a GET may name a key whose PUT sits earlier in
        // the same batch — the server's run execution guarantees reads
        // observe earlier writes of the run.
        let plan: Vec<_> = mix.by_ref().take(n).collect();
        let reqs: Vec<Request<'_>> = plan
            .iter()
            .map(|(is_get, key)| match is_get {
                true => Request::Get { key },
                false => Request::Put {
                    key,
                    value: &w.value,
                },
            })
            .collect();
        let send = if multi {
            Client::multi
        } else {
            Client::pipeline
        };
        let start = Instant::now();
        let replies =
            send(&mut clients[0], &reqs).map_err(|e| format!("conn {conn_id}: batch: {e}"))?;
        let per_op = start.elapsed() / n as u32;
        for ((is_get, _), reply) in plan.iter().zip(&replies) {
            let ok = match reply {
                Reply::Value(v) => *is_get && *v == w.value,
                Reply::Ok => !is_get,
                _ => false,
            };
            if !ok {
                let why = format!("unexpected batch reply {reply:?} (get={is_get})");
                return Err(format!("conn {conn_id}: {why}"));
            }
            lats[0][usize::from(*is_get)].push(per_op);
        }
        left -= n as u64;
        multi = !multi;
        if w.throttle > Duration::ZERO {
            std::thread::sleep(w.throttle);
        }
    }
    Ok(lats)
}

/// The servers a phase drives: external endpoints, or in-process servers
/// this run started.
struct Target {
    endpoints: Vec<SocketAddr>,
    local: Vec<Server>,
}

impl Target {
    /// Quiesce the in-process servers; idempotent with a wire `SHUTDOWN`.
    fn shutdown(self) {
        for server in self.local {
            server.shutdown();
        }
    }
}

/// What one phase measured.
struct Phase {
    secs: f64,
    lats: PerEndpoint,
    /// `(batches, ops)` group-commit counters — in-process servers only.
    group: Option<(u64, u64)>,
}

impl Phase {
    /// Every operation on endpoint `ep`, both classes.
    fn all(&self, ep: usize) -> Lats {
        let mut all = Lats::default();
        all.merge(&self.lats[ep][0]);
        all.merge(&self.lats[ep][1]);
        all
    }

    fn ops_per_s(&self) -> f64 {
        let ops: u64 = self.lats.iter().flatten().map(|l| l.count).sum();
        ops as f64 / self.secs
    }

    /// `put` and, if any GET ran, `get` rows of a one-endpoint phase.
    fn rows(&self, r: &Run, put: &'static str, get: &'static str) -> (Json, Option<Json>) {
        let [puts, gets] = &self.lats[0];
        let get = (gets.count > 0).then(|| r.row(get, None, gets, self.secs));
        (r.row(put, None, puts, self.secs), get)
    }
}

/// Run `w.conns` workers, connection ids from `conn_base`, against
/// `target`; `during` runs on this thread while they do. Phases that share
/// an external server use disjoint bases so their keyspaces stay apart.
fn run_phase(t: &Target, conn_base: u32, w: &Work, during: impl FnOnce()) -> Result<Phase, String> {
    let endpoints = &t.endpoints[..];
    let start = Instant::now();
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.conns)
            .map(|i| s.spawn(move || run_conn(endpoints, conn_base + i, w)))
            .collect();
        during();
        let joined = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "loadgen thread panicked"));
        joined.collect::<Result<Vec<_>, _>>()
    })?;
    let secs = start.elapsed().as_secs_f64();
    let mut lats: PerEndpoint = endpoints.iter().map(|_| Default::default()).collect();
    for conn in per_conn {
        for (acc, l) in lats.iter_mut().zip(conn?) {
            acc[0].merge(&l[0]);
            acc[1].merge(&l[1]);
        }
    }
    let group = t.local.first().map(Server::group_stats);
    Ok(Phase { secs, lats, group })
}

/// What an invocation runs.
enum Mode {
    /// Round trips, then `STATS`; `true` poisons a row (`--inject-garbage`).
    RoundTrip(bool),
    /// A round-trip phase, then one at `--pipeline` depth.
    Pipeline,
    /// `--sweep-threads` connection counts, and `--flush-wait-ns`.
    Sweep(Vec<u32>, u32),
    /// `--idle-conns` parked connections under a pipelined hot phase.
    Idle(u32),
    /// `--addrs` or `--local-shards` endpoints through the client ring.
    Multi,
}

/// A checked command line.
struct Run {
    mode: Mode,
    smoke: bool,
    policy: PolicyKind,
    work: Work,
    /// `--addr`, or the `--addrs` list; empty for in-process servers.
    addrs: Vec<SocketAddr>,
    pool_mb: u64,
    nbuckets: u64,
    max_conns: usize,
    reactors: usize,
    local_shards: u32,
    shutdown: bool,
}

type Field = (&'static str, Json);
type Res = Result<(), String>;

impl Run {
    /// An in-process server on an ephemeral port over a fresh pool: plain
    /// media, or device-wait media whose draining fences wait
    /// `flush_wait_ns` from the moment the server is up (pool and engine
    /// creation run at DRAM speed).
    fn local_server(&self, flush_wait_ns: Option<u32>) -> Result<Server, String> {
        let bytes = self.pool_mb << 20;
        let pool = match flush_wait_ns {
            None => fresh_server_pool(bytes, 16, false),
            Some(ns) => fresh_server_pool_wait(bytes, 16, ns),
        }
        .map_err(|e| format!("pool create: {e}"))?;
        let pm = Arc::clone(pool.pm());
        let engine = KvEngine::create(pool, self.policy, self.nbuckets)
            .map_err(|e| format!("engine create: {e}"))?;
        let (max_conns, reactors) = (self.max_conns, self.reactors);
        let cfg = ServerConfig {
            max_conns,
            reactors,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::new(engine), ("127.0.0.1", 0), cfg)
            .map_err(|e| format!("in-process server: {e}"))?;
        pm.set_latency_enabled(flush_wait_ns.is_some());
        Ok(server)
    }

    /// The servers a phase drives: the external endpoints, or `n` fresh
    /// in-process servers (on device-wait media given `flush_wait_ns`).
    fn target(&self, n: u32, flush_wait_ns: Option<u32>) -> Result<Target, String> {
        let n = if self.addrs.is_empty() { n } else { 0 };
        let local = (0..n)
            .map(|_| self.local_server(flush_wait_ns))
            .collect::<Result<Vec<_>, _>>()?;
        let mut endpoints = self.addrs.clone();
        endpoints.extend(local.iter().map(Server::local_addr));
        Ok(Target { endpoints, local })
    }

    /// One phase on a fresh target, torn down after.
    fn fresh_phase(&self, conn_base: u32, w: &Work, wait: Option<u32>) -> Result<Phase, String> {
        let target = self.target(1, wait)?;
        let phase = run_phase(&target, conn_base, w, || {})?;
        target.shutdown();
        Ok(phase)
    }

    /// `--shutdown`: stop every external server the run drove. The run's
    /// own connections may hold every slot for a moment after they close,
    /// so a `BUSY` is retried for a few seconds.
    fn shutdown_external(&self) -> Res {
        if !self.shutdown {
            return Ok(());
        }
        for addr in &self.addrs {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let mut c = Client::connect_retry(*addr, Duration::from_secs(5))
                    .map_err(|e| format!("shutdown connect {addr}: {e}"))?;
                match c.shutdown() {
                    Ok(()) => break,
                    Err(ClientError::Busy) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => return Err(format!("SHUTDOWN {addr}: {e}")),
                }
            }
        }
        Ok(())
    }

    fn banner(&self, mode: &str, detail: &str) {
        let (policy, w) = (self.policy.label(), &self.work);
        let (ops, value, reads) = (w.ops, w.value.len(), w.read_pct);
        banner(&format!(
            "spp-loadgen{mode}: policy={policy} {detail}ops/conn={ops} value={value}B reads={reads}%"
        ));
    }

    fn row(&self, op: &'static str, tag: Option<(&'static str, u64)>, l: &Lats, s: f64) -> Json {
        let mut row = vec![("policy", text(self.policy.label())), ("op", text(op))];
        row.extend(tag.map(|(k, v)| (k, Json::Int(v))));
        row.extend([
            ("ops", Json::Int(l.count)),
            ("throughput_ops_s", Json::Num(l.count as f64 / s)),
            ("p50_us", Json::Num(l.percentile_us(0.50))),
            ("p95_us", Json::Num(l.percentile_us(0.95))),
            ("p99_us", Json::Num(l.percentile_us(0.99))),
        ]);
        Json::Obj(row)
    }

    /// Print the rows, check them through `validate_rows` (each row's
    /// throughput, percentiles, op count and sweep `conns` must be finite
    /// and > 0), then write `results/<file>`: `name`, `lead`, the op mix,
    /// `tail`, then the rows.
    fn report(&self, file: &str, lead: Vec<Field>, tail: Vec<Field>, rows: Vec<Json>) -> Res {
        for row in &rows {
            println!("{}", row.render());
        }
        let mut positive = vec!["throughput_ops_s", "p50_us", "p95_us", "p99_us", "ops"];
        positive.extend(matches!(self.mode, Mode::Sweep(..)).then_some("conns"));
        validate_rows(&rows, &positive).map_err(|e| format!("result validation failed: {e}"))?;
        let w = &self.work;
        let mut doc = vec![("name", text("server_loadgen"))];
        doc.extend(lead);
        doc.extend([
            ("ops_per_conn", Json::Int(w.ops)),
            ("value_size", Json::Int(w.value.len() as u64)),
            ("read_pct", Json::Int(u64::from(w.read_pct))),
        ]);
        doc.extend(tail);
        doc.push(("rows", Json::Arr(rows)));
        let path = write_text_artifact(file, &(Json::Obj(doc).render() + "\n"));
        println!("wrote {}", path.display());
        Ok(())
    }
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// `p50=..us p99=..us` of `l`.
fn pcts(l: &Lats) -> String {
    let (p50, p99) = (l.percentile_us(0.50), l.percentile_us(0.99));
    format!("p50={p50:.1}us p99={p99:.1}us")
}

/// Round-trip mode: one phase, then `STATS` over a fresh connection (and
/// `--shutdown` over it to an in-process server; `main` stops an external
/// one).
fn run_round_trip(r: &Run, inject_garbage: bool) -> Res {
    let w = &r.work;
    r.banner("", &format!("conns={} ", w.conns));
    let target = r.target(1, None)?;
    if let [server] = &target.local[..] {
        println!("spawned in-process server on {}", server.local_addr());
    }
    let phase = run_phase(&target, 0, w, || {})?;

    // Server-side introspection after the run (also exercises STATS).
    let mut client = Client::connect_retry(target.endpoints[0], Duration::from_secs(5))
        .map_err(|e| format!("stats: {e}"))?;
    let stats = client.stats().map_err(|e| format!("STATS: {e}"))?;
    println!("--- server stats ---\n{stats}--------------------");
    if r.shutdown && r.addrs.is_empty() {
        client.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
    }
    target.shutdown();

    let (ops, elapsed) = (phase.all(0).count, phase.secs);
    let tput = phase.ops_per_s();
    println!("total: {ops} ops in {elapsed:.3}s = {tput:.0} ops/s");
    let (put, get) = phase.rows(r, "put", "get");
    let mut rows = vec![put];
    rows.extend(get);
    if inject_garbage {
        // Negative CI hook: a poisoned row must make validation fail.
        rows.push(r.row("garbage", None, &Lats::default(), f64::NAN));
    }
    let lead = vec![
        ("policy", text(r.policy.label())),
        ("conns", Json::Int(w.conns.into())),
    ];
    let tail = vec![("elapsed_s", Json::Num(elapsed))];
    r.report("server_loadgen.json", lead, tail, rows)
}

/// Pipeline-comparison mode: a round-trip phase, then the depth-N phase.
/// Exits nonzero if the speedup misses the floor — unless `--throttle-us`
/// degrades the run for the perf gate's injected-regression self-test.
fn run_pipeline(r: &Run) -> Res {
    let w = &r.work;
    let detail = format!("depth={} conns={} ", w.depth, w.conns);
    r.banner(" pipeline", &detail);
    let round_trips = Work {
        depth: 0,
        throttle: Duration::ZERO,
        ..w.clone()
    };
    let rt = r.fresh_phase(0, &round_trips, None)?;
    let rt_tput = rt.ops_per_s();
    let rt_pcts = pcts(&rt.lats[0][0]);
    println!("round-trip: {rt_tput:>10.0} ops/s  {rt_pcts}");
    let pl = r.fresh_phase(1 << 20, w, None)?;
    let pl_tput = pl.ops_per_s();
    let pl_pcts = pcts(&pl.lats[0][0]);
    println!("pipelined:  {pl_tput:>10.0} ops/s  {pl_pcts}");
    if let Some((batches, gops)) = pl.group {
        let avg = gops as f64 / batches.max(1) as f64;
        println!(
            "group commit: {gops} write ops over {batches} boundaries ({avg:.1} ops/boundary)"
        );
    }

    let speedup = pl_tput / rt_tput;
    println!("pipeline speedup: {speedup:.2}x");
    let floor = if r.smoke { 1.5 } else { 2.0 };
    if w.throttle > Duration::ZERO {
        let throttle = w.throttle;
        println!("throttled run ({throttle:?}/batch): speedup floor check skipped");
    } else if speedup < floor {
        return Err(format!(
            "pipeline speedup {speedup:.2}x under the {floor:.1}x floor — batching regressed"
        ));
    }

    let (rt_put, rt_get) = rt.rows(r, "put_roundtrip", "get_roundtrip");
    let (pl_put, pl_get) = pl.rows(r, "put_pipelined", "get_pipelined");
    let mut rows = vec![rt_put, pl_put];
    rows.extend(rt_get.into_iter().chain(pl_get));
    let (group_batches, group_ops) = pl.group.unwrap_or((0, 0));
    let lead = vec![
        ("mode", text("pipeline")),
        ("policy", text(r.policy.label())),
        ("pipeline_depth", Json::Int(w.depth as u64)),
        ("conns", Json::Int(w.conns.into())),
    ];
    let tail = vec![
        ("throttle_us", Json::Int(w.throttle.as_micros() as u64)),
        ("roundtrip_ops_s", Json::Num(rt_tput)),
        ("pipelined_ops_s", Json::Num(pl_tput)),
        ("pipeline_speedup", Json::Num(speedup)),
        ("group_batches", Json::Int(group_batches)),
        ("group_batched_ops", Json::Int(group_ops)),
    ];
    r.report("server_loadgen.json", lead, tail, rows)
}

/// Thread-sweep mode: one fresh device-wait server per connection count,
/// reporting where the throughput knee sits, plus the contention profile
/// accumulated across the sweep.
fn run_sweep(r: &Run, counts: &[u32], flush_wait_ns: u32) -> Res {
    let detail = format!("conns={counts:?} flush-wait={flush_wait_ns}ns ");
    r.banner(" sweep", &detail);
    contention::reset_all();
    let mut rows = Vec::new();
    let mut tputs: Vec<f64> = Vec::new();
    for &conns in counts {
        let w = Work {
            conns,
            ..r.work.clone()
        };
        let phase = r.fresh_phase(0, &w, Some(flush_wait_ns))?;
        let (all, tput) = (phase.all(0), phase.ops_per_s());
        println!("  conns={conns:<3} {tput:>10.0} ops/s  {}", pcts(&all));
        let tag = Some(("conns", u64::from(conns)));
        rows.push(r.row("sweep", tag, &all, phase.secs));
        tputs.push(tput);
    }

    // The knee: the last connection count that still bought >= 10% more
    // throughput than the previous point.
    let knee = (1..tputs.len())
        .take_while(|&i| tputs[i] >= tputs[i - 1] * 1.10)
        .last()
        .map_or(counts[0], |i| counts[i]);
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

    let lead = vec![("mode", text("sweep")), ("policy", text(r.policy.label()))];
    let conns = Json::Arr(counts.iter().map(|&c| Json::Int(c.into())).collect());
    let tputs = Json::Arr(tputs.into_iter().map(Json::Num).collect());
    let tail = vec![
        ("flush_wait_ns", Json::Int(flush_wait_ns.into())),
        ("sweep_conns", conns),
        ("sweep_ops_per_s", tputs),
        ("knee_conns", Json::Int(knee.into())),
    ];
    r.report("server_loadgen.json", lead, tail, rows)
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

/// Idle-scaling mode: park `idle_conns` open-but-quiet connections on one
/// server, run the hot pipelined phase over them and report what the idle
/// fleet cost — process threads and RSS with it attached — then ping every
/// idle connection to prove the fleet stayed serviceable. The run
/// **self-validates** that threads stay within `reactors + hot + 8`:
/// O(reactors), not O(connections) nor O(shards).
fn run_idle(r: &Run, idle_conns: u32) -> Res {
    let (w, reactors) = (&r.work, r.reactors);
    // The fd limit, not memory, is the usual first wall at thousands of
    // sockets; raise it before opening anything.
    let nofile = raise_nofile_limit();
    let need = u64::from(idle_conns) + u64::from(w.conns) + 64;
    if nofile < need {
        return Err(format!(
            "RLIMIT_NOFILE {nofile} too low for {idle_conns} idle connections (need ~{need})"
        ));
    }
    let detail = format!("idle={idle_conns} hot={} depth={} ", w.conns, w.depth);
    r.banner(" idle-scaling", &detail);
    let target = r.target(1, None)?;
    let (threads_base, rss_base_kb) = proc_status();

    // Park the idle fleet. Each connection proves it was admitted and
    // served (one PING) before going quiet.
    let open_start = Instant::now();
    let mut idle: Vec<Client> = Vec::with_capacity(idle_conns as usize);
    for i in 0..idle_conns {
        let mut c = Client::connect_retry(target.endpoints[0], Duration::from_secs(10))
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

    // Sample the thread count while the hot core is actually running —
    // that is the moment the claim is about.
    let mut load = (0, 0);
    let hot = run_phase(&target, 1 << 20, w, || {
        std::thread::sleep(Duration::from_millis(50));
        load = proc_status();
    })?;
    let (threads_load, rss_load_kb) = load;
    let tput = hot.ops_per_s();
    println!(
        "hot core: {tput:>10.0} ops/s  {}  threads under load: {threads_load}  \
         rss: {rss_load_kb} kB",
        pcts(&hot.lats[0][0])
    );

    // The fleet must still be alive and serviceable after the load ran.
    for (i, c) in idle.iter_mut().enumerate() {
        c.ping()
            .map_err(|e| format!("idle conn {i} died while parked: {e}"))?;
    }
    println!("all {idle_conns} idle connections still answer PING");
    drop(idle);
    target.shutdown();

    // Idle connections are epoll registrations, so total threads are
    // bounded by the reactors (which also commit), the hot clients and
    // slack for main and runtime helpers — no room for an O(conns)
    // regression to hide behind 5000 idle conns.
    let budget = (reactors + w.conns as usize + 8) as u64;
    if threads_load == 0 {
        return Err("procfs unavailable: cannot validate the thread budget".into());
    }
    if threads_load > budget {
        return Err(format!(
            "thread count {threads_load} exceeds budget {budget} (reactors={reactors} hot={}): \
             threads are scaling with connections",
            w.conns
        ));
    }
    println!("thread budget holds: {threads_load} <= {budget}");

    let (put, get) = hot.rows(r, "idle_hot_put", "idle_hot_get");
    let mut rows = vec![put];
    rows.extend(get);
    let lead = vec![
        ("mode", text("idle_scaling")),
        ("io_mode", text("epoll")),
        ("policy", text(r.policy.label())),
        ("idle_conns", Json::Int(idle_conns.into())),
        ("hot_conns", Json::Int(w.conns.into())),
        ("reactors", Json::Int(reactors as u64)),
        ("pipeline_depth", Json::Int(w.depth as u64)),
    ];
    let tail = vec![
        ("open_fleet_s", Json::Num(open_s)),
        ("os_threads_base", Json::Int(threads_base)),
        ("os_threads_idle", Json::Int(threads_idle)),
        ("os_threads_load", Json::Int(threads_load)),
        ("thread_budget", Json::Int(budget)),
        ("vm_rss_kb_base", Json::Int(rss_base_kb)),
        ("vm_rss_kb_idle", Json::Int(rss_idle_kb)),
        ("vm_rss_kb_load", Json::Int(rss_load_kb)),
        ("hot_ops_s", Json::Num(tput)),
    ];
    // A sibling artifact: `server_loadgen.json` holds the pipeline and
    // sweep results, and the perf gate pins it to `mode: "pipeline"`.
    r.report("server_loadgen_idle.json", lead, tail, rows)
}

/// Multi-endpoint mode: drive a sharded deployment through the client-side
/// ring and report how evenly it spread real traffic — one row per shard,
/// and the skew `max/mean` of per-shard op counts (1.0 = even). A shard
/// that saw no traffic means client and deployment rings disagree.
fn run_multi(r: &Run) -> Res {
    let w = &r.work;
    let target = r.target(r.local_shards, None)?;
    let nshards = target.endpoints.len();
    r.banner(" multi", &format!("endpoints={nshards} conns={} ", w.conns));
    for (s, addr) in target.endpoints.iter().enumerate() {
        println!("  shard {s} -> {addr}");
    }
    let phase = run_phase(&target, 0, w, || {})?;
    let elapsed = phase.secs;
    let per_shard: Vec<Lats> = (0..nshards).map(|s| phase.all(s)).collect();
    let counts: Vec<u64> = per_shard.iter().map(|l| l.count).collect();
    let total: u64 = counts.iter().sum();
    let skew = counts.iter().copied().max().unwrap_or(0) as f64 / (total as f64 / nshards as f64);
    for (s, lats) in per_shard.iter().enumerate() {
        let (n, pcts) = (lats.count, pcts(lats));
        println!(
            "  shard {s}: {n:>8} ops  {:>10.0} ops/s  {pcts}",
            n as f64 / elapsed
        );
    }
    let tput = phase.ops_per_s();
    println!(
        "total: {total} ops in {elapsed:.3}s = {tput:.0} ops/s  shard skew (max/mean): {skew:.2}"
    );
    if let Some(starved) = counts.iter().position(|&c| c == 0) {
        return Err(format!(
            "shard {starved} received no traffic — client ring and deployment disagree"
        ));
    }

    let rows = per_shard
        .iter()
        .enumerate()
        .map(|(s, l)| r.row("multi_shard", Some(("shard", s as u64)), l, elapsed))
        .collect();
    let lead = vec![
        ("mode", text("multi")),
        ("policy", text(r.policy.label())),
        ("shards", Json::Int(nshards as u64)),
        ("conns", Json::Int(w.conns.into())),
    ];
    let tail = vec![
        ("elapsed_s", Json::Num(elapsed)),
        ("total_ops_s", Json::Num(tput)),
        (
            "shard_ops",
            Json::Arr(counts.into_iter().map(Json::Int).collect()),
        ),
        ("shard_skew_max_over_mean", Json::Num(skew)),
    ];
    r.report("server_loadgen.json", lead, tail, rows)?;
    target.shutdown();
    Ok(())
}

/// `Err` naming `flag` unless `lo <= v <= hi`.
fn in_range(flag: &str, v: u64, lo: u64, hi: u64) -> Res {
    if (lo..=hi).contains(&v) {
        Ok(())
    } else if hi == u64::MAX {
        Err(format!("--{flag} {v}: must be at least {lo}"))
    } else {
        Err(format!("--{flag} {v}: must be in {lo}..={hi}"))
    }
}

/// The sweep's connection counts: at least two, strictly increasing, each
/// in `1..=max_conns` — one client thread per connection, against a server
/// that would answer the excess `BUSY`.
fn check_sweep(counts: &[u32], max_conns: usize) -> Res {
    if counts.len() < 2 {
        return Err(format!("--sweep-threads needs >= 2 counts, got {counts:?}"));
    }
    if !counts.windows(2).all(|p| p[0] < p[1]) {
        return Err(format!(
            "--sweep-threads must strictly increase: {counts:?}"
        ));
    }
    let max = max_conns as u64;
    counts
        .iter()
        .try_for_each(|&c| in_range("sweep-threads", c.into(), 1, max))
}

/// `Err` for the first flag in `passed` that the space-separated `reads`
/// does not name: the mode would silently ignore it.
fn refuse_unread<'a>(passed: impl IntoIterator<Item = &'a str>, reads: &str, mode: &str) -> Res {
    match passed
        .into_iter()
        .find(|f| !reads.split(' ').any(|r| r == *f))
    {
        Some(flag) => Err(format!("--{flag} has no effect in {mode}")),
        None => Ok(()),
    }
}

/// Check the command line once: pick the mode, refuse every flag it would
/// not read, and refuse out-of-range values instead of rewriting them.
fn parse(args: &Args) -> Result<Run, String> {
    let given = |name: &str| args.passed().any(|f| f == name);
    let smoke = args.flag("smoke");
    let mode = if given("sweep-threads") {
        let counts = args.get("sweep-threads", List(Vec::new())).0;
        Mode::Sweep(counts, args.get("flush-wait-ns", 15_000))
    } else if given("idle-conns") {
        Mode::Idle(args.get("idle-conns", 0))
    } else if given("pipeline") {
        Mode::Pipeline
    } else if given("addrs") || given("local-shards") {
        Mode::Multi
    } else {
        Mode::RoundTrip(args.flag("inject-garbage"))
    };
    let external = given("addr") || given("addrs");
    // What each mode reads besides the op mix: an external server takes
    // `--shutdown`, in-process ones are sized (SIZE), and idle mode sizes
    // `--max-conns` to its fleet itself.
    let (name, reads) = match (&mode, external) {
        (Mode::RoundTrip(_), true) => ("round-trip", "conns inject-garbage shutdown addr"),
        (Mode::RoundTrip(_), false) => {
            ("round-trip", "conns inject-garbage shutdown SIZE max-conns")
        }
        (Mode::Pipeline, true) => ("pipeline", "conns pipeline throttle-us addr shutdown"),
        (Mode::Pipeline, false) => ("pipeline", "conns pipeline throttle-us SIZE max-conns"),
        (Mode::Multi, true) => ("multi-endpoint", "conns addrs shutdown"),
        (Mode::Multi, false) => ("multi-endpoint", "conns local-shards SIZE max-conns"),
        (Mode::Sweep(..), _) => ("sweep", "sweep-threads flush-wait-ns SIZE max-conns"),
        (Mode::Idle(_), _) => ("idle-scaling", "idle-conns conns pipeline SIZE"),
    };
    let reads = format!("policy ops value-size read-pct smoke {reads}")
        .replace("SIZE", "pool-mb nbuckets reactors");
    let place = if external {
        "against an external server"
    } else {
        "with in-process servers"
    };
    refuse_unread(args.passed(), &reads, &format!("{name} mode {place}"))?;

    let idle = matches!(mode, Mode::Idle(_));
    let sweep = matches!(mode, Mode::Sweep(..));
    let conns: u32 = args.get("conns", if smoke || idle { 2 } else { 4 });
    let (policy, [full_ops, smoke_ops]) = match mode {
        Mode::Sweep(..) => (PolicyKind::Pmdk, [4_000, 300]),
        Mode::Idle(_) => (PolicyKind::Spp, [4_000, 400]),
        _ => (PolicyKind::Spp, [20_000, 500]),
    };
    let ops: u64 = args.get("ops", if smoke { smoke_ops } else { full_ops });
    let read_pct: u32 = args.get("read-pct", 50);
    let depth: usize = args.get("pipeline", if idle { 8 } else { 0 });
    let multi_local = matches!(mode, Mode::Multi) && !external;
    let pool_mb = args.get("pool-mb", if multi_local { 32 } else { 64 });
    let max_conns = match mode {
        Mode::Idle(idle_conns) => idle_conns as usize + conns as usize + 8,
        _ => args.get("max-conns", 64),
    };
    let mut addrs: Vec<SocketAddr> = args.get("addrs", List(Vec::new())).0;
    if given("addr") {
        addrs.push(args.get("addr", SocketAddr::from(([127, 0, 0, 1], 0))));
    }
    let local_shards: u32 = args.get("local-shards", 0);

    in_range("read-pct", read_pct.into(), 0, 100)?;
    in_range("ops", ops, 1, u64::MAX)?;
    let capped = !(external || idle);
    let conns_max = if capped { max_conns as u64 } else { u64::MAX };
    if !sweep {
        in_range("conns", conns.into(), 1, conns_max)?;
    }
    if matches!(mode, Mode::Pipeline | Mode::Idle(_)) {
        in_range("pipeline", depth as u64, 1, u64::MAX)?;
    }
    match &mode {
        Mode::Sweep(counts, _) => check_sweep(counts, max_conns)?,
        Mode::Idle(idle_conns) => in_range("idle-conns", (*idle_conns).into(), 1, u64::MAX)?,
        Mode::Multi if external && addrs.len() < 2 => {
            return Err("--addrs needs at least 2 endpoints (use --addr for one)".to_string())
        }
        Mode::Multi if !external => in_range("local-shards", local_shards.into(), 1, u64::MAX)?,
        _ => {}
    }
    let value_size = args.get("value-size", if smoke { 64 } else { 100 });
    let throttle = Duration::from_micros(args.get("throttle-us", 0));
    Ok(Run {
        policy: args.get("policy", policy),
        work: Work {
            conns,
            ops,
            read_pct,
            value: vec![0xA5u8; value_size],
            depth,
            throttle,
        },
        mode,
        smoke,
        addrs,
        pool_mb,
        nbuckets: args.get("nbuckets", 4096),
        max_conns,
        reactors: args.get("reactors", 2),
        local_shards,
        shutdown: args.flag("shutdown"),
    })
}

fn main() -> ExitCode {
    let args = Args::parse(&[
        Opt::value::<SocketAddr>("addr"),
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
        Opt::value::<List<u32>>("sweep-threads"),
        Opt::value::<u32>("flush-wait-ns"),
        Opt::value::<usize>("pipeline"),
        Opt::value::<u64>("throttle-us"),
        Opt::value::<usize>("reactors"),
        Opt::value::<u32>("idle-conns"),
        Opt::value::<List<SocketAddr>>("addrs"),
        Opt::value::<u32>("local-shards"),
    ]);
    // A refused command line exits 2, before any socket, thread or file.
    let (code, result) = match parse(&args) {
        Err(why) => (2, Err(why)),
        Ok(r) => {
            let ran = match &r.mode {
                Mode::RoundTrip(inject_garbage) => run_round_trip(&r, *inject_garbage),
                Mode::Pipeline => run_pipeline(&r),
                Mode::Sweep(counts, flush_wait_ns) => run_sweep(&r, counts, *flush_wait_ns),
                Mode::Idle(idle_conns) => run_idle(&r, *idle_conns),
                Mode::Multi => run_multi(&r),
            };
            // Whatever the run's outcome, so a failed run never leaves a
            // daemon serving; the exit code stays the run's.
            let stopped = r.shutdown_external();
            if let (Err(_), Err(why)) = (&ran, &stopped) {
                eprintln!("spp-loadgen: {why}");
            }
            (1, ran.and(stopped))
        }
    };
    if let Err(msg) = result {
        eprintln!("spp-loadgen: {msg}");
        return ExitCode::from(code);
    }
    ExitCode::SUCCESS
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

    #[test]
    fn op_mix_opens_with_key_0_0_and_reads_only_written_keys() {
        let mut mix = OpMix::new(0, 50);
        assert_eq!(mix.next(), Some((false, key_of(0, 0))));
        let (mut written, mut gets) = (1u64, 0);
        for (is_get, key) in mix.take(999) {
            assert_eq!(key[..4], [0; 4]);
            let seq = u64::from_be_bytes(key[4..12].try_into().unwrap());
            if is_get {
                assert!(seq < written, "GET of unwritten seq {seq}");
                gets += 1;
            } else {
                assert_eq!(seq, written);
                written += 1;
            }
        }
        assert!((400..600).contains(&gets), "gets = {gets}");
    }

    #[test]
    fn out_of_range_counts_are_refused() {
        assert!(in_range("read-pct", 100, 0, 100).is_ok());
        assert_eq!(
            in_range("read-pct", 101, 0, 100).unwrap_err(),
            "--read-pct 101: must be in 0..=100"
        );
        assert_eq!(
            in_range("conns", 0, 1, u64::MAX).unwrap_err(),
            "--conns 0: must be at least 1"
        );
        assert!(check_sweep(&[1, 2, 4], 4).is_ok());
        assert!(check_sweep(&[1, 2, 4, 8], 4)
            .unwrap_err()
            .contains("--sweep-threads 8: must be in 1..=4"));
        assert!(check_sweep(&[0, 1], 4)
            .unwrap_err()
            .contains("--sweep-threads 0"));
        for unordered in [&[2, 1][..], &[2, 2]] {
            assert!(check_sweep(unordered, 4)
                .unwrap_err()
                .contains("strictly increase"));
        }
        assert!(check_sweep(&[2], 4).unwrap_err().contains(">= 2 counts"));
    }

    #[test]
    fn a_flag_the_mode_does_not_read_is_refused() {
        assert!(refuse_unread(["conns", "ops"], "ops conns", "m").is_ok());
        assert_eq!(
            refuse_unread(["ops", "addr", "shutdown"], "ops conns", "sweep mode").unwrap_err(),
            "--addr has no effect in sweep mode"
        );
    }
}
