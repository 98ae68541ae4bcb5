//! The four workloads and the measured (untraced) run.
//!
//! Every workload is a fixed, seeded amount of work: one untimed warm-up
//! round, then timed rounds of a fixed op count over a stationary,
//! preloaded key space (PUTs overwrite). Each timing metric is the median
//! over rounds of that round's figure.

use std::time::{Duration, Instant};

use crate::gen::{key_bytes, stream, Dist, KeyPicker, Kind, Model, Op, KEY_SIZE};
use crate::hist::Hist;
use crate::metrics::{Audit, Outcome};
use crate::os;
use crate::sut::{self, Conn, Device, Engine, KvTarget, Policy, Service, WireOp, WireReply};

/// How a workload's operations reach the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// One thread calling the engine; no sockets, no other threads.
    Engine,
    /// Closed-loop connections, one frame per round trip.
    RoundTrip,
    /// Closed-loop connections sending depth-8 batches, alternately one
    /// `MULTI` frame and eight pipelined frames.
    Pipe8,
    /// [`Path::RoundTrip`] against a primary that replicates synchronously
    /// to a backup server.
    ReplRoundTrip,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    pub keys: u32,
    pub value_len: usize,
    pub get_pct: u32,
    pub dist: Dist,
    /// Operations per round, all connections together. Sized so a round
    /// takes about a second at the speed of the commit that added the
    /// benchmark.
    pub ops_per_round: usize,
    /// Operations per policy per round of the bare-engine replay that
    /// yields `spp_over_pmdk` (on [`Path::Engine`] the workload is that
    /// replay, and this equals `ops_per_round`).
    pub replay_ops: usize,
}

/// Closed-loop client connections of the socket workloads (= `nproc` of the
/// sandbox the benchmark was sized on).
pub const CONNS: u32 = 2;
pub const BATCH: usize = 8;
/// Rounds never cut by the time cap.
const MIN_ROUNDS: u64 = 5;
/// Rounds of the bare-engine replay on the socket workloads.
const REPLAY_ROUNDS: u64 = 7;
/// Ops one engine runs before the other takes its turn in the replay:
/// a few milliseconds' worth.
const REPLAY_CHUNK: usize = 8_000;
const SETUPS: usize = 5;
/// Restarts of the final device, each opened once, behind `reopen_ms`.
const RESTARTS: usize = 15;
/// Every how many engine calls one is timed on [`Path::Engine`]: two clock
/// reads cost about a tenth of a GET, so timing each call would slow the
/// throughput being measured.
const ENGINE_LAT_SAMPLE: usize = 8;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "engine_read_heavy",
        why: "core+kvstore+pmdk do all the work and the front end none (Fig. 5's 95/5 mix, run long enough to resolve); bound-check, GenIndex and typed-handle work shows here and nowhere else",
        path: Path::Engine,
        keys: 100_000,
        value_len: 100,
        get_pct: 95,
        dist: Dist::Uniform,
        ops_per_round: 800_000,
        replay_ops: 800_000,
    },
    Spec {
        name: "rt_mixed",
        why: "one frame per round trip: >85% of a request is syscalls, reactor, queue and thread hand-offs and <10% the engine, so front-end work shows here and policy work is predicted not to",
        path: Path::RoundTrip,
        keys: 100_000,
        value_len: 100,
        get_pct: 50,
        dist: Dist::Uniform,
        ops_per_round: 50_000,
        replay_ops: 200_000,
    },
    Spec {
        name: "pipe_write_heavy",
        why: "depth-8 MULTI/pipelined batches of zipfian 1 KiB PUTs amortise the front end 8x, so group batching, redo-tx commit, flush traffic and 1 KiB framing dominate and hot keys churn generations",
        path: Path::Pipe8,
        keys: 50_000,
        value_len: 1024,
        get_pct: 10,
        dist: Dist::Zipf(0.99),
        ops_per_round: 176_000,
        replay_ops: 100_000,
    },
    Spec {
        name: "repl_sync_write",
        why: "sync primary-to-backup replication: ship + backup commit + REPL_ACK is half of every PUT and absent from every other workload; the backup is read back byte-exact at the end",
        path: Path::ReplRoundTrip,
        keys: 100_000,
        value_len: 100,
        get_pct: 20,
        dist: Dist::Uniform,
        ops_per_round: 25_000,
        replay_ops: 200_000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

type Res<T> = Result<T, String>;

// ---------------------------------------------------------------------
// pieces shared with the traced run
// ---------------------------------------------------------------------

/// Write version 0 of every key straight into `target`.
pub fn preload(target: &impl KvTarget, model: &Model) -> Res<()> {
    let mut value = Vec::new();
    for k in 0..model.keys() {
        model.current_value(k, &mut value);
        target.put(&key_bytes(k), &value)?;
    }
    Ok(())
}

/// Read every key back from `engine` and compare with the connection
/// models (key `k` belongs to `models[k % models.len()]`); the entry count
/// must be the key count.
pub fn readback(engine: &Engine, models: &[&Model], what: &str, audit: &mut Audit) {
    let keys = models[0].keys();
    let mut out = Vec::new();
    for k in 0..keys {
        let model = models[k as usize % models.len()];
        out.clear();
        let found = engine.get(&key_bytes(k), &mut out);
        audit.check(found == Ok(true) && model.holds(k, &out), || {
            format!("{what} readback of key {k}: {found:?}, {} bytes", out.len())
        });
    }
    let count = engine.count();
    audit.check(count == Ok(u64::from(keys)), || {
        format!("{what} holds {count:?} entries, expected {keys}")
    });
}

/// An engine with the model of what it must hold and this round's
/// latencies.
pub struct EngineSide {
    pub engine: Engine,
    pub model: Model,
    pub get: Hist,
    pub put: Hist,
    value: Vec<u8>,
    out: Vec<u8>,
}

impl EngineSide {
    pub fn setup(policy: Policy, spec: &Spec, seed: u64) -> Res<EngineSide> {
        let engine = Engine::create(policy, spec.keys)?;
        let model = Model::preloaded(spec.keys, spec.value_len, seed);
        preload(&engine, &model)?;
        Ok(EngineSide {
            engine,
            model,
            get: Hist::default(),
            put: Hist::default(),
            value: Vec::new(),
            out: Vec::new(),
        })
    }

    /// Apply `ops` in order, checking every reply. Every `sample`-th call
    /// (0: none) is timed into the histograms and handed to `span` with its
    /// index in `ops` (the traced run records them). Returns the wall time.
    pub fn run(
        &mut self,
        ops: &[Op],
        sample: usize,
        audit: &mut Audit,
        mut span: impl FnMut(usize, Instant, Instant),
    ) -> Duration {
        let start = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let key = key_bytes(op.key);
            let timed = sample != 0 && i % sample == 0;
            match op.kind {
                Kind::Get => {
                    self.out.clear();
                    let t = timed.then(Instant::now);
                    let found = self.engine.get(&key, &mut self.out);
                    if let Some(t) = t {
                        let end = Instant::now();
                        self.get.record((end - t).as_nanos() as u64);
                        span(i, t, end);
                    }
                    audit.check(
                        found == Ok(true) && self.model.holds(op.key, &self.out),
                        || format!("engine GET key {}: {found:?}", op.key),
                    );
                }
                Kind::Put => {
                    self.model.next_value(op.key, &mut self.value);
                    let t = timed.then(Instant::now);
                    let done = self.engine.put(&key, &self.value);
                    if let Some(t) = t {
                        let end = Instant::now();
                        self.put.record((end - t).as_nanos() as u64);
                        span(i, t, end);
                    }
                    audit.check(done.is_ok(), || {
                        format!("engine PUT key {}: {done:?}", op.key)
                    });
                }
            }
        }
        start.elapsed()
    }
}

/// How a depth-8 batch goes over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// One `MULTI` frame: one reply frame, one durability boundary.
    Multi,
    /// Eight frames back to back, eight replies.
    Pipelined,
}

/// [`Path::Pipe8`] alternates the two.
pub fn alternating(batch: usize) -> Framing {
    if batch.is_multiple_of(2) {
        Framing::Multi
    } else {
        Framing::Pipelined
    }
}

/// Start and end of request `.0` of a connection's stream.
pub type Stamp = (usize, Instant, Instant);

/// One client connection with the model of the keys it owns and this
/// round's latencies.
pub struct ConnSide {
    conn: Conn,
    pub model: Model,
    pub picker: KeyPicker,
    pub get: Hist,
    pub put: Hist,
    pub batch: Hist,
    pub audit: Audit,
    /// Requests the server answered `BUSY`.
    pub busy: u64,
    out: Vec<u8>,
    values: Vec<Vec<u8>>,
}

impl ConnSide {
    fn new(conn: Conn, id: u32, model: &Model, spec: &Spec) -> ConnSide {
        ConnSide {
            conn,
            model: model.clone(),
            picker: KeyPicker::new(spec.keys, id, CONNS, spec.dist),
            get: Hist::default(),
            put: Hist::default(),
            batch: Hist::default(),
            audit: Audit::default(),
            busy: 0,
            out: Vec::new(),
            values: vec![Vec::new(); BATCH],
        }
    }

    fn clear_round(&mut self) {
        self.get.clear();
        self.put.clear();
        self.batch.clear();
    }

    /// One request per round trip. `span` sees each request's index and
    /// its start and end instants (the traced run records them).
    pub fn round_trips(&mut self, ops: &[Op], mut span: impl FnMut(usize, Instant, Instant)) {
        for (i, op) in ops.iter().enumerate() {
            let key = key_bytes(op.key);
            match op.kind {
                Kind::Get => {
                    self.out.clear();
                    let t = Instant::now();
                    let found = self.conn.get(&key, &mut self.out);
                    let end = Instant::now();
                    self.get.record((end - t).as_nanos() as u64);
                    span(i, t, end);
                    let ok = found == Ok(true) && self.model.holds(op.key, &self.out);
                    self.busy += u64::from(found.as_ref().is_err_and(|e| sut::is_busy(e)));
                    self.audit
                        .check(ok, || format!("GET key {}: {found:?}", op.key));
                }
                Kind::Put => {
                    self.model.next_value(op.key, &mut self.values[0]);
                    let t = Instant::now();
                    let done = self.conn.put(&key, &self.values[0]);
                    let end = Instant::now();
                    self.put.record((end - t).as_nanos() as u64);
                    span(i, t, end);
                    self.busy += u64::from(done.as_ref().is_err_and(|e| sut::is_busy(e)));
                    self.audit
                        .check(done.is_ok(), || format!("PUT key {}: {done:?}", op.key));
                }
            }
        }
    }

    /// `n` PINGs, one per round trip, their latencies into `rtt`.
    pub fn pings(
        &mut self,
        n: usize,
        rtt: &mut Hist,
        mut span: impl FnMut(usize, Instant, Instant),
    ) {
        for i in 0..n {
            let t = Instant::now();
            let pong = self.conn.ping();
            let end = Instant::now();
            rtt.record((end - t).as_nanos() as u64);
            span(i, t, end);
            self.audit.check(pong.is_ok(), || format!("PING: {pong:?}"));
        }
    }

    /// Depth-8 batches; `framing(b)` says how batch `b` is sent. A batch's
    /// latency is send to last reply; each of its ops observed that same
    /// latency.
    pub fn batches(
        &mut self,
        ops: &[Op],
        framing: impl Fn(usize) -> Framing,
        mut span: impl FnMut(usize, Instant, Instant),
    ) {
        let mut keys = [[0u8; KEY_SIZE]; BATCH];
        // Version a GET must see: a batch may PUT a key before it GETs it.
        let mut expect = [0u32; BATCH];
        for (b, chunk) in ops.chunks(BATCH).enumerate() {
            for (i, op) in chunk.iter().enumerate() {
                keys[i] = key_bytes(op.key);
                if op.kind == Kind::Put {
                    self.model.next_value(op.key, &mut self.values[i]);
                }
                expect[i] = self.model.version(op.key);
            }
            let frames: Vec<WireOp<'_>> = chunk
                .iter()
                .enumerate()
                .map(|(i, op)| match op.kind {
                    Kind::Get => WireOp::Get { key: &keys[i] },
                    Kind::Put => WireOp::Put {
                        key: &keys[i],
                        value: &self.values[i],
                    },
                })
                .collect();
            let t = Instant::now();
            let replies = match framing(b) {
                Framing::Multi => self.conn.multi(&frames),
                Framing::Pipelined => self.conn.pipeline(&frames),
            };
            let end = Instant::now();
            let ns = (end - t).as_nanos() as u64;
            self.batch.record(ns);
            span(b * BATCH, t, end);
            let replies = match replies {
                Ok(r) if r.len() == chunk.len() => r,
                other => {
                    for op in chunk {
                        self.audit
                            .fail(|| format!("batch {b} (key {}): {other:?}", op.key));
                    }
                    continue;
                }
            };
            for (i, (op, reply)) in chunk.iter().zip(&replies).enumerate() {
                let ok = match (op.kind, reply) {
                    (Kind::Put, WireReply::Done) => {
                        self.put.record(ns);
                        true
                    }
                    (Kind::Get, WireReply::Value(v)) => {
                        self.get.record(ns);
                        let m = &self.model;
                        crate::gen::value_matches(v, m.value_len, m.seed, op.key, expect[i])
                    }
                    (_, WireReply::Busy) => {
                        self.busy += 1;
                        false
                    }
                    _ => false,
                };
                self.audit.check(ok, || {
                    format!(
                        "batch {b} op {i} ({:?} key {}): wrong reply",
                        op.kind, op.key
                    )
                });
            }
        }
    }
}

/// A served primary engine (with a served backup for
/// [`Path::ReplRoundTrip`]) and the client connections to it.
pub struct Rig {
    primary: (Engine, Service),
    backup: Option<(Engine, Service)>,
    pub conns: Vec<ConnSide>,
}

impl Rig {
    /// Pools and engines created, key space preloaded (on the backup too:
    /// replication ships only what clients write), servers started,
    /// connections open.
    pub fn setup(spec: &Spec, seed: u64, replicated: bool) -> Res<Rig> {
        let model = Model::preloaded(spec.keys, spec.value_len, seed);
        let backup = if replicated {
            let engine = Engine::create(Policy::Spp, spec.keys)?;
            preload(&engine, &model)?;
            let service = Service::start(&engine, None)?;
            Some((engine, service))
        } else {
            None
        };
        let engine = Engine::create(Policy::Spp, spec.keys)?;
        preload(&engine, &model)?;
        Rig::serve(engine, backup, &model, spec)
    }

    /// Serve an engine that already holds what `model` says, unreplicated.
    pub fn adopt(engine: Engine, model: &Model, spec: &Spec) -> Res<Rig> {
        Rig::serve(engine, None, model, spec)
    }

    fn serve(
        engine: Engine,
        backup: Option<(Engine, Service)>,
        model: &Model,
        spec: &Spec,
    ) -> Res<Rig> {
        let service = Service::start(&engine, backup.as_ref().map(|(_, s)| s.addr()))?;
        let conns = (0..CONNS)
            .map(|id| {
                Ok(ConnSide::new(
                    Conn::connect(service.addr())?,
                    id,
                    model,
                    spec,
                ))
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Rig {
            primary: (engine, service),
            backup,
            conns,
        })
    }

    /// For a rig only connection 0 writes through, to any key: its model
    /// is then the model of every key.
    pub fn conn0_wrote_everything(&mut self) {
        let (first, rest) = self.conns.split_at_mut(1);
        for side in rest {
            side.model = first[0].model.clone();
        }
    }

    pub fn service(&self) -> &Service {
        &self.primary.1
    }

    pub fn engine(&self) -> &Engine {
        &self.primary.0
    }

    /// Run one round: every connection on its own thread, each through its
    /// own stream. With `stamps`, connection `c` appends every request's
    /// start and end to `stamps[c]`. Returns the wall time from first send
    /// to last reply.
    pub fn round(
        &mut self,
        path: Path,
        streams: &[Vec<Op>],
        stamps: Option<&mut [Vec<Stamp>]>,
    ) -> Duration {
        for side in &mut self.conns {
            side.clear_round();
        }
        let mut sinks: Vec<Option<&mut Vec<Stamp>>> = match stamps {
            Some(per_conn) => per_conn.iter_mut().map(Some).collect(),
            None => self.conns.iter().map(|_| None).collect(),
        };
        let start = Instant::now();
        std::thread::scope(|s| {
            for ((side, ops), mut sink) in self.conns.iter_mut().zip(streams).zip(sinks.drain(..)) {
                s.spawn(move || {
                    let span = |i, t, end| {
                        if let Some(sink) = sink.as_mut() {
                            sink.push((i, t, end));
                        }
                    };
                    match path {
                        Path::Pipe8 => side.batches(ops, alternating, span),
                        _ => side.round_trips(ops, span),
                    }
                });
            }
        });
        start.elapsed()
    }

    pub fn streams(&self, spec: &Spec, ops_per_conn: usize, seed: u64, round: u32) -> Vec<Vec<Op>> {
        self.conns
            .iter()
            .zip(0..)
            .map(|(side, id)| stream(&side.picker, spec.get_pct, ops_per_conn, seed, id, round))
            .collect()
    }

    /// This round's latencies of all connections together.
    pub fn merged(&self, pick: impl Fn(&ConnSide) -> &Hist) -> Hist {
        let mut all = Hist::default();
        for side in &self.conns {
            all.merge(pick(side));
        }
        all
    }

    /// Close the connections and shut the servers down gracefully.
    fn teardown(self) -> (Engine, Option<Engine>, Vec<ConnSide>) {
        let Rig {
            primary: (engine, service),
            backup,
            conns,
        } = self;
        service.shutdown();
        let backup = backup.map(|(backup_engine, backup_service)| {
            backup_service.shutdown();
            backup_engine
        });
        (engine, backup, conns)
    }

    /// Tear down, then read every key back from the primary (and the
    /// backup) engine against the connections' models.
    pub fn finish(self, audit: &mut Audit) -> Res<Finished> {
        let (engine, backup, conns) = self.teardown();
        let mut models = Vec::new();
        for side in conns {
            audit.absorb(side.audit);
            models.push(side.model);
        }
        let models: Vec<&Model> = models.iter().collect();
        readback(&engine, &models, "primary", audit);
        let before = audit.failed;
        if let Some(backup) = backup {
            readback(&backup, &models, "backup", audit);
        }
        Ok(Finished {
            backup_mismatches: audit.failed - before,
            high_water: engine.high_water(),
            device: engine.into_device()?,
        })
    }
}

/// What is left of a [`Rig`] once it is shut down and audited.
pub struct Finished {
    /// Keys the backup does not hold exactly as the primary was told.
    pub backup_mismatches: u64,
    /// The primary's heap high-water mark.
    pub high_water: u64,
    /// The primary's device, for reopening.
    pub device: Device,
}

// ---------------------------------------------------------------------
// the measured run
// ---------------------------------------------------------------------

fn time_setups<T>(
    mut setup: impl FnMut() -> Res<T>,
    mut discard: impl FnMut(T),
) -> Res<(T, Vec<f64>)> {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUPS > 0"), secs))
}

/// The rounds loop: `round(r)` runs round `r` (0 is the warm-up) and
/// returns its wall time; its figures are collected by the caller. Stops
/// after `rounds` timed rounds, or — never before [`MIN_ROUNDS`] — once the
/// timed rounds have used up `cap`.
fn run_rounds(rounds: u64, cap: Duration, mut round: impl FnMut(u32) -> Duration) -> u64 {
    round(0);
    let mut used = Duration::ZERO;
    let mut done = 0;
    while done < rounds && (done < MIN_ROUNDS || used < cap) {
        done += 1;
        used += round(done as u32);
    }
    done
}

/// pmdk ops/s ÷ spp ops/s of `ops`-long seeded streams applied to bare
/// engines, per round. With `sample`, the spp side's calls are timed.
struct Replay {
    pmdk: EngineSide,
    spp: EngineSide,
    picker: KeyPicker,
}

impl Replay {
    fn setup(spec: &Spec, seed: u64) -> Res<Replay> {
        Ok(Replay {
            pmdk: EngineSide::setup(Policy::Pmdk, spec, seed)?,
            spp: EngineSide::setup(Policy::Spp, spec, seed)?,
            picker: KeyPicker::new(spec.keys, 0, 1, spec.dist),
        })
    }

    /// Returns `(pmdk seconds, spp seconds)` for this round's stream. The
    /// two engines take turns every [`REPLAY_CHUNK`] ops, so a slow phase of
    /// the host lands on both and cancels in their ratio.
    fn round(
        &mut self,
        spec: &Spec,
        seed: u64,
        r: u32,
        sample: usize,
        audit: &mut Audit,
    ) -> (f64, f64) {
        let ops = stream(&self.picker, spec.get_pct, spec.replay_ops, seed, 0, r);
        self.spp.get.clear();
        self.spp.put.clear();
        let (mut pmdk, mut spp) = (Duration::ZERO, Duration::ZERO);
        for chunk in ops.chunks(REPLAY_CHUNK) {
            pmdk += self.pmdk.run(chunk, 0, audit, |_, _, _| {});
            spp += self.spp.run(chunk, sample, audit, |_, _, _| {});
        }
        (pmdk.as_secs_f64(), spp.as_secs_f64())
    }
}

/// Collected per-round figures of the timing metrics.
#[derive(Default)]
struct Rounds {
    ops_per_s: Vec<f64>,
    ratio: Vec<f64>,
    get_p50: Vec<f64>,
    put_p50: Vec<f64>,
    batch_p50: Vec<f64>,
    gets: u64,
    puts: u64,
    batches: u64,
}

impl Rounds {
    fn latencies(&mut self, get: &Hist, put: &Hist, batch: Option<&Hist>) {
        self.get_p50.push(get.quantile_us(0.5).unwrap_or(f64::NAN));
        self.put_p50.push(put.quantile_us(0.5).unwrap_or(f64::NAN));
        self.gets += get.count();
        self.puts += put.count();
        if let Some(batch) = batch {
            self.batch_p50
                .push(batch.quantile_us(0.5).unwrap_or(f64::NAN));
            self.batches += batch.count();
        }
    }
}

/// The untraced run of `spec`: every end-to-end metric defined on it.
/// `seconds` sets the number of timed rounds (one per second asked for) and,
/// at 1.5 × that, the time after which remaining rounds are dropped.
pub fn measure(spec: &Spec, seed: u64, seconds: u64) -> Res<Outcome> {
    let rounds = seconds.max(MIN_ROUNDS);
    let cap = Duration::from_secs(seconds) * 3 / 2;
    let mut audit = Audit::default();
    let mut fig = Rounds::default();
    let setup_secs;
    let high_water;
    let device;
    let done;

    if spec.path == Path::Engine {
        let (mut replay, secs) = time_setups(|| Replay::setup(spec, seed), drop)?;
        setup_secs = secs;
        done = run_rounds(rounds, cap, |r| {
            let (pmdk, spp) = replay.round(spec, seed, r, ENGINE_LAT_SAMPLE, &mut audit);
            if r > 0 {
                fig.ops_per_s.push(spec.replay_ops as f64 / spp);
                fig.ratio.push(spp / pmdk);
                fig.latencies(&replay.spp.get, &replay.spp.put, None);
            }
            Duration::from_secs_f64(pmdk + spp)
        });
        readback(
            &replay.pmdk.engine,
            &[&replay.pmdk.model],
            "pmdk engine",
            &mut audit,
        );
        readback(
            &replay.spp.engine,
            &[&replay.spp.model],
            "spp engine",
            &mut audit,
        );
        high_water = replay.spp.engine.high_water();
        device = replay.spp.engine.into_device()?;
    } else {
        // The bare-engine replay first, and dropped before the servers
        // exist: its two pools must not add to the serving peak RSS.
        {
            let mut replay = Replay::setup(spec, seed)?;
            run_rounds(REPLAY_ROUNDS, Duration::MAX, |r| {
                let (pmdk, spp) = replay.round(spec, seed, r, 0, &mut audit);
                if r > 0 {
                    fig.ratio.push(spp / pmdk);
                }
                Duration::ZERO
            });
        }
        let replicated = spec.path == Path::ReplRoundTrip;
        let (mut rig, secs) = time_setups(
            || Rig::setup(spec, seed, replicated),
            |old: Rig| drop(old.teardown()),
        )?;
        setup_secs = secs;
        let per_conn = spec.ops_per_round / CONNS as usize;
        done = run_rounds(rounds, cap, |r| {
            let streams = rig.streams(spec, per_conn, seed, r);
            let wall = rig.round(spec.path, &streams, None);
            if r > 0 {
                let ops = (per_conn * CONNS as usize) as f64;
                fig.ops_per_s.push(ops / wall.as_secs_f64());
                let batch = (spec.path == Path::Pipe8).then(|| rig.merged(|c| &c.batch));
                fig.latencies(
                    &rig.merged(|c| &c.get),
                    &rig.merged(|c| &c.put),
                    batch.as_ref(),
                );
            }
            wall
        });
        Finished {
            high_water,
            device,
            ..
        } = rig.finish(&mut audit)?;
    }

    // The peak of the run proper; the reopened engines below are the
    // benchmark's, not the service's.
    let rss_peak_mb = os::rss_peak_mb().map_err(|e| e.to_string())?;
    // Each open is of a restarted device: the durable bytes copied into
    // memory of their own, which also sweeps the caches, so every open
    // starts cold, as after a reboot. Opened again and again in place, the
    // same pool took anything from 9 ms to 23 ms — presumably by how much
    // of its 60 MB working set the host's shared last-level cache still
    // held; cold, the middle half of a run's opens lies within a tenth of
    // their median.
    os::keep_freed_memory();
    let mut reopen_ms = Vec::new();
    for restart in 0..RESTARTS {
        let copy = device.restart();
        let t = Instant::now();
        let (engine, _) = copy.reopen(Policy::Spp)?;
        reopen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if restart == 0 {
            let count = engine.count();
            audit.check(count == Ok(u64::from(spec.keys)), || {
                format!("reopened engine holds {count:?} entries")
            });
        }
    }

    let mut out = Outcome {
        rounds: done,
        ..Outcome::default()
    };
    out.push_median("ops_per_s", &fig.ops_per_s, done)?;
    out.push_median("spp_over_pmdk", &fig.ratio, fig.ratio.len() as u64)?;
    out.push_median("get_p50_us", &fig.get_p50, fig.gets)?;
    out.push_median("put_p50_us", &fig.put_p50, fig.puts)?;
    if spec.path == Path::Pipe8 {
        out.push_median("batch_p50_us", &fig.batch_p50, fig.batches)?;
    }
    let live = u64::from(spec.keys) * (KEY_SIZE + spec.value_len) as u64;
    out.push("space_amp", high_water as f64 / live as f64);
    out.push_median("setup_s", &setup_secs, SETUPS as u64)?;
    out.push_median("reopen_ms", &reopen_ms, RESTARTS as u64)?;
    out.push("failed_frac", audit.failed_frac());
    out.push("rss_peak_mb", rss_peak_mb);
    out.audit = audit;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real workload of `path`, shrunk.
    fn tiny(path: Path, dist: Dist) -> Spec {
        Spec {
            name: SPECS.iter().find(|s| s.path == path).unwrap().name,
            why: "",
            path,
            keys: 600,
            value_len: 100,
            get_pct: 50,
            dist,
            ops_per_round: 1_600,
            replay_ops: 1_600,
        }
    }

    #[test]
    fn specs_divide_evenly_into_connections_and_batches() {
        for s in &SPECS {
            // Every connection the same number of ops; on the batched path
            // as many MULTI batches as pipelined ones.
            let unit = if s.path == Path::Pipe8 { 2 * BATCH } else { 1 };
            assert_eq!(s.ops_per_round % (CONNS as usize * unit), 0, "{}", s.name);
            assert!(s.keys % CONNS == 0);
            if s.path == Path::Engine {
                assert_eq!(s.ops_per_round, s.replay_ops);
            }
        }
    }

    #[test]
    fn every_path_runs_clean_and_reports_its_metrics() {
        for (path, dist) in [
            (Path::Engine, Dist::Uniform),
            (Path::RoundTrip, Dist::Uniform),
            (Path::Pipe8, Dist::Zipf(0.99)),
            (Path::ReplRoundTrip, Dist::Uniform),
        ] {
            let out = measure(&tiny(path, dist), 3, 5).unwrap();
            assert_eq!(out.audit.failed, 0, "{path:?}: {:?}", out.audit.examples);
            assert_eq!(out.rounds, 5);
            // Warm-up + 5 rounds of 1600 ops, at least; then readbacks.
            assert!(out.audit.attempted > 6 * 1_600, "{path:?}");
            let spec = tiny(path, dist);
            for m in crate::metrics::END_TO_END {
                // Present exactly where the table says it is defined, and
                // never zero where the driver's contract carries it.
                let got = out.get(m.name);
                assert_eq!(
                    got.is_some(),
                    m.defined_on(spec.name),
                    "{path:?} {}",
                    m.name
                );
                if let Some(v) = got {
                    assert!(
                        v.is_finite() && (v > 0.0 || !m.in_contract()),
                        "{path:?} {} = {v}",
                        m.name
                    );
                }
            }
            assert_eq!(out.get("failed_frac"), Some(0.0));
        }
    }

    #[test]
    fn a_store_that_loses_a_write_is_caught_by_the_readback() {
        let spec = tiny(Path::Engine, Dist::Uniform);
        let mut side = EngineSide::setup(Policy::Spp, &spec, 1).unwrap();
        let mut audit = Audit::default();
        // The model believes key 5 moved on; the engine never saw the PUT.
        side.model.next_value(5, &mut Vec::new());
        readback(&side.engine, &[&side.model], "engine", &mut audit);
        assert_eq!(audit.failed, 1);
        assert_eq!(audit.attempted, u64::from(spec.keys) + 1);
        assert!(audit.examples[0].contains("key 5"));
    }

    #[test]
    fn the_time_cap_drops_rounds_but_never_below_the_floor() {
        let slow = |_: u32| Duration::from_secs(10);
        assert_eq!(run_rounds(10, Duration::from_secs(15), slow), MIN_ROUNDS);
        let quick = |_: u32| Duration::from_millis(1);
        assert_eq!(run_rounds(10, Duration::from_secs(15), quick), 10);
        let mut seen = Vec::new();
        run_rounds(7, Duration::MAX, |r| {
            seen.push(r);
            Duration::ZERO
        });
        assert_eq!(seen, [0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
