//! The traced run: the workload's seeded stream, shortened, executed at
//! successive depths of the stack — a *layer ladder*.
//!
//! wire codec → ring → `KvStore` → `KvEngine` → `GroupCommitter` →
//! `Client`↔`Server` → replicated `Client`↔primary, plus the `pm`, `pmdk`
//! and `core` primitives beneath them and the workload's own path on top.
//! Every call (or, for calls under a microsecond, every block of
//! [`BLOCK`] calls, so that the two clock reads stay under 1 % of the span)
//! is wrapped in a span `{name, start_ns, end_ns, parent, req}` kept in
//! memory and written to `benchmark/out/trace_<workload>.json` at the end.
//! A rung's figure is the median over its spans of the time per call; a
//! rung's *self* time is its figure minus that of the rung beneath on the
//! same ops. Spans are recorded here, around the public calls; spans
//! inside the program are a later issue.

use std::fmt::Write as _;
use std::time::Instant;

use crate::gen::{key_bytes, stream, KeyPicker, Kind, Model, Op, KEY_SIZE};
use crate::hist::{median, Hist};
use crate::metrics::{Audit, Outcome};
use crate::os;
use crate::sut::{
    self, Committer, Engine, KvTarget, Placement, PmCounts, PmdkStore, Policy, PolicyCounts,
    Primitives, SppStore, TracedSppStore, WireOp, WireResp, WriteBatch, POOL_BYTES,
};
use crate::workloads::{
    preload, readback, EngineSide, Framing, Path, Rig, Spec, Stamp, BATCH, CONNS,
};

type Res<T> = Result<T, String>;

/// Calls per span where one call is too short to time alone.
const BLOCK: usize = 256;
/// Most ops any rung replays.
const MAX_OPS: usize = 40_000;
/// Most ops a socket rung replays (each is tens of microseconds).
const MAX_SOCKET_OPS: usize = 10_000;
/// Pairs of untraced/traced replays behind `trace.overhead_frac`.
const OVERHEAD_PAIRS: u32 = 3;
/// Ops and keys of the crash audit.
const AUDIT_OPS: usize = 20_000;
const AUDIT_KEYS: u32 = 4_096;
const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u32,
}

/// The span buffer: preallocated, appended to, written out once.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Record a finished span; returns its duration in ns.
    fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let start_ns = (start - self.origin).as_nanos() as u64;
        let end_ns = (end - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (end_ns - start_ns) as f64
    }

    /// Open a span that encloses others; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, 0, now, now);
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    fn to_json(&self, spec: &Spec, seed: u64) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = writeln!(
            s,
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"span_fields\": \
             [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"req\"], \"spans\": [",
            spec.name
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == NO_PARENT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "[\"{}\", {}, {}, {parent}, {}]{comma}",
                sp.name, sp.start_ns, sp.end_ns, sp.req
            );
        }
        s.push_str("]}\n");
        s
    }
}

fn need(costs: &[f64], what: &str) -> Res<f64> {
    median(costs).ok_or_else(|| format!("{what}: no spans"))
}

/// An op of the ladder's stream with its position in it — the request id
/// that the same op carries on every rung.
#[derive(Clone, Copy)]
struct Item {
    req: u32,
    op: Op,
}

/// The stream split by kind, so that a block is all GETs or all PUTs.
struct Items {
    all: Vec<Item>,
    gets: Vec<Item>,
    puts: Vec<Item>,
}

impl Items {
    fn of(ops: &[Op]) -> Items {
        let all: Vec<Item> = ops
            .iter()
            .zip(0..)
            .map(|(&op, req)| Item { req, op })
            .collect();
        let of_kind = |k| all.iter().filter(|it| it.op.kind == k).copied().collect();
        Items {
            gets: of_kind(Kind::Get),
            puts: of_kind(Kind::Put),
            all,
        }
    }
}

/// Reusable per-block buffers: keys, the values to write, the values read.
struct Bufs {
    keys: Vec<[u8; KEY_SIZE]>,
    values: Vec<Vec<u8>>,
    outs: Vec<Vec<u8>>,
}

impl Bufs {
    fn new() -> Bufs {
        Bufs {
            keys: vec![[0; KEY_SIZE]; BLOCK],
            values: vec![Vec::new(); BLOCK],
            outs: vec![Vec::new(); BLOCK],
        }
    }

    fn load_keys(&mut self, block: &[Item]) {
        for (k, it) in self.keys.iter_mut().zip(block) {
            *k = key_bytes(it.op.key);
        }
    }

    /// The next version of each item's key, recorded in `model`.
    fn next_values(&mut self, block: &[Item], model: &mut Model) {
        for (v, it) in self.values.iter_mut().zip(block) {
            model.next_value(it.op.key, v);
        }
    }
}

/// What every rung shares: the span buffer, the correctness tally, the
/// block buffers and the metrics reported so far.
struct Ladder<'a> {
    spec: &'a Spec,
    seed: u64,
    tr: Tracer,
    bufs: Bufs,
    audit: Audit,
    out: Outcome,
}

/// Figures a deeper rung subtracts from its own.
struct Beneath {
    eng_get_ns: f64,
    eng_put_ns: f64,
}

impl Ladder<'_> {
    /// GETs straight on `target`, timed in blocks; every reply is checked
    /// after its block's clock stops. Returns the typical ns per call.
    fn gets(
        &mut self,
        name: &'static str,
        parent: u32,
        target: &impl KvTarget,
        model: &Model,
        gets: &[Item],
    ) -> Res<f64> {
        let mut costs = Vec::new();
        for block in gets.chunks(BLOCK) {
            self.bufs.load_keys(block);
            let mut found = [false; BLOCK];
            let start = Instant::now();
            for ((key, out), found) in self
                .bufs
                .keys
                .iter()
                .zip(&mut self.bufs.outs)
                .zip(&mut found)
                .take(block.len())
            {
                out.clear();
                *found = target.get(key, out) == Ok(true);
            }
            let end = Instant::now();
            costs.push(self.tr.record(name, parent, block[0].req, start, end) / block.len() as f64);
            for (i, it) in block.iter().enumerate() {
                self.audit.check(
                    found[i] && model.holds(it.op.key, &self.bufs.outs[i]),
                    || format!("{name}: GET key {} wrong", it.op.key),
                );
            }
        }
        need(&costs, name)
    }

    /// PUTs straight on `target`, timed in blocks; the values are generated
    /// before the block's clock starts.
    fn puts(
        &mut self,
        name: &'static str,
        parent: u32,
        target: &impl KvTarget,
        model: &mut Model,
        puts: &[Item],
    ) -> Res<f64> {
        let mut costs = Vec::new();
        for block in puts.chunks(BLOCK) {
            self.bufs.load_keys(block);
            self.bufs.next_values(block, model);
            let mut done = [false; BLOCK];
            let start = Instant::now();
            for ((key, value), done) in self
                .bufs
                .keys
                .iter()
                .zip(&self.bufs.values)
                .zip(&mut done)
                .take(block.len())
            {
                *done = target.put(key, value).is_ok();
            }
            let end = Instant::now();
            costs.push(self.tr.record(name, parent, block[0].req, start, end) / block.len() as f64);
            for (it, done) in block.iter().zip(done) {
                self.audit
                    .check(done, || format!("{name}: PUT key {} failed", it.op.key));
            }
        }
        need(&costs, name)
    }

    /// PUTs in batches of eight through `apply`, one span per batch;
    /// returns the typical ns per op. `apply` gets a batch's `(key, value)`
    /// pairs and returns the clock interval of the call it timed.
    fn put_batches(
        &mut self,
        name: &'static str,
        parent: u32,
        model: &mut Model,
        puts: &[Item],
        mut apply: impl FnMut(&[(&[u8], &[u8])]) -> (Instant, Instant, Res<()>),
    ) -> Res<f64> {
        let mut costs = Vec::new();
        for batch in puts.chunks(BATCH) {
            self.bufs.load_keys(batch);
            self.bufs.next_values(batch, model);
            let pairs: Vec<(&[u8], &[u8])> = self
                .bufs
                .keys
                .iter()
                .zip(&self.bufs.values)
                .take(batch.len())
                .map(|(k, v)| (&k[..], &v[..]))
                .collect();
            let (start, end, done) = apply(&pairs);
            costs.push(self.tr.record(name, parent, batch[0].req, start, end) / batch.len() as f64);
            for it in batch {
                self.audit.check(done.is_ok(), || {
                    format!("{name}: key {}: {done:?}", it.op.key)
                });
            }
        }
        need(&costs, name)
    }

    /// `spans` spans of `per_span` calls of `f` each; the typical ns per
    /// call.
    fn timed(
        &mut self,
        name: &'static str,
        parent: u32,
        per_span: usize,
        f: &mut dyn FnMut() -> Res<()>,
    ) -> Res<f64> {
        const SPANS: usize = 64;
        let mut costs = Vec::with_capacity(SPANS);
        for r in 0..SPANS {
            let t = Instant::now();
            for _ in 0..per_span {
                f()?;
            }
            let e = Instant::now();
            costs.push(self.tr.record(name, parent, r as u32, t, e) / per_span as f64);
        }
        need(&costs, name)
    }

    /// Fill `store` with version 0 of every key; the model of what it holds.
    fn preloaded(&self, store: &impl KvTarget) -> Res<Model> {
        let model = Model::preloaded(self.spec.keys, self.spec.value_len, self.seed);
        preload(store, &model)?;
        Ok(model)
    }

    /// The frames of `block`'s ops and of the replies a server would send:
    /// a PUT carries its key's current value, a GET is answered with it.
    fn frames<'b>(bufs: &'b Bufs, block: &[Item]) -> Vec<(WireOp<'b>, WireResp<'b>)> {
        block
            .iter()
            .zip(bufs.keys.iter().zip(&bufs.values))
            .map(|(it, (key, value))| match it.op.kind {
                Kind::Get => (WireOp::Get { key }, WireResp::Value(value)),
                Kind::Put => (WireOp::Put { key, value }, WireResp::Done),
            })
            .collect()
    }

    // ---- wire: the codec alone ----------------------------------------
    fn wire(&mut self, root: u32, items: &Items) -> Res<()> {
        let rung = self.tr.open("wire", root);
        let model = Model::preloaded(self.spec.keys, self.spec.value_len, self.seed);
        let mut costs: [Vec<f64>; 5] = Default::default();
        let (mut reqs, mut resps, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes = 0;
        for block in items.all.chunks(BLOCK) {
            self.bufs.load_keys(block);
            for (v, it) in self.bufs.values.iter_mut().zip(block) {
                model.current_value(it.op.key, v);
            }
            let frames = Self::frames(&self.bufs, block);
            let (tr, n, req) = (&mut self.tr, block.len() as f64, block[0].req);
            reqs.clear();
            resps.clear();

            let t = Instant::now();
            for (op, _) in &frames {
                sut::encode_request(&mut reqs, *op);
            }
            costs[0].push(tr.record("wire.encode_req", rung, req, t, Instant::now()) / n);

            let t = Instant::now();
            let mut req_end = 0;
            for _ in &frames {
                req_end += sut::decode_request(&reqs[req_end..])?;
            }
            costs[1].push(tr.record("wire.decode_req", rung, req, t, Instant::now()) / n);

            let t = Instant::now();
            for (_, resp) in &frames {
                sut::encode_response(&mut resps, *resp);
            }
            costs[2].push(tr.record("wire.encode_resp", rung, req, t, Instant::now()) / n);

            let t = Instant::now();
            let mut resp_end = 0;
            for _ in &frames {
                resp_end += sut::decode_response(&resps[resp_end..])?;
            }
            costs[3].push(tr.record("wire.decode_resp", rung, req, t, Instant::now()) / n);

            // MULTI x 8: the same ops, eight to a frame, both directions.
            let batches: Vec<(Vec<WireOp<'_>>, Vec<WireResp<'_>>)> = frames
                .chunks(BATCH)
                .map(|c| c.iter().copied().unzip())
                .collect();
            let t = Instant::now();
            for (ops, replies) in &batches {
                std::hint::black_box(sut::multi_codec(ops, replies, &mut scratch)?);
            }
            costs[4].push(tr.record("wire.multi8_codec", rung, req, t, Instant::now()) / n);

            self.audit
                .check(req_end == reqs.len() && resp_end == resps.len(), || {
                    "wire: a decoded frame is not the length it was encoded with".to_string()
                });
            bytes += reqs.len() + resps.len();
        }
        self.out
            .push("wire.encode_req_ns", need(&costs[0], "wire.encode_req")?);
        self.out
            .push("wire.decode_req_ns", need(&costs[1], "wire.decode_req")?);
        self.out
            .push("wire.encode_resp_ns", need(&costs[2], "wire.encode_resp")?);
        self.out
            .push("wire.decode_resp_ns", need(&costs[3], "wire.decode_resp")?);
        self.out.push(
            "wire.multi8_codec_ns",
            need(&costs[4], "wire.multi8_codec")?,
        );
        self.out
            .push("wire.bytes_per_op", bytes as f64 / items.all.len() as f64);
        self.tr.close(rung);
        Ok(())
    }

    // ---- ring: placement ------------------------------------------------
    fn ring(&mut self, root: u32, items: &Items) -> Res<()> {
        let rung = self.tr.open("ring", root);
        let placement = Placement::single_shard();
        let mut costs = Vec::new();
        for block in items.all.chunks(BLOCK) {
            self.bufs.load_keys(block);
            let t = Instant::now();
            for key in &self.bufs.keys[..block.len()] {
                std::hint::black_box(placement.shard_of(std::hint::black_box(key)));
            }
            let e = Instant::now();
            costs.push(
                self.tr.record("ring.shard_of", rung, block[0].req, t, e) / block.len() as f64,
            );
        }
        self.out
            .push("ring.shard_of_ns", need(&costs, "ring.shard_of")?);
        self.tr.close(rung);
        Ok(())
    }

    // ---- kvstore + core: KvStore<P>, counted then timed -----------------
    fn kvstore(&mut self, root: u32, items: &Items) -> Res<f64> {
        let rung = self.tr.open("kvstore", root);
        let spec = self.spec;
        {
            // Counts: a decorated policy on a pool that records its
            // traffic. Both cost time on every access, so this pass is
            // never timed and its spans are thrown away.
            let store = TracedSppStore::create(spec.keys, POOL_BYTES, true)?;
            let mut model = self.preloaded(&store)?;
            let kept =
                std::mem::replace(&mut self.tr, Tracer::new(2 * items.all.len() / BLOCK + 2));
            let before = (store.pm_counts(), store.policy().counts());
            self.puts("count", NO_PARENT, &store, &mut model, &items.puts)?;
            let put = PerOp::between(&store, before, items.puts.len());
            let before = (store.pm_counts(), store.policy().counts());
            self.gets("count", NO_PARENT, &store, &model, &items.gets)?;
            let get = PerOp::between(&store, before, items.gets.len());
            self.tr = kept;
            let out = &mut self.out;
            out.push("pm.flushes_per_put", put.per(put.pm.flushes));
            out.push("pm.fences_per_put", put.per(put.pm.fences));
            out.push("pm.bytes_written_per_put", put.per(put.pm.bytes_written));
            out.push(
                "pm.write_amp",
                put.per(put.pm.bytes_written) / (KEY_SIZE + spec.value_len) as f64,
            );
            out.push("pm.reads_per_get", get.per(get.pm.reads));
            out.push("pm.bytes_read_per_get", get.per(get.pm.bytes_read));
            out.push("pmdk.allocs_per_put", put.per(put.policy.allocs));
            out.push("pmdk.frees_per_put", put.per(put.policy.frees));
            out.push("core.resolves_per_get", get.per(get.policy.resolves));
            out.push("core.resolves_per_put", put.per(put.policy.resolves));
            out.push("core.geps_per_get", get.per(get.policy.geps));
            out.push("core.directs_per_get", get.per(get.policy.directs));
        }
        let (kv_get, kv_put);
        {
            let store = SppStore::create(spec.keys, POOL_BYTES, false)?;
            let mut model = self.preloaded(&store)?;
            kv_get = self.gets("kvstore.get", rung, &store, &model, &items.gets)?;
            kv_put = self.puts("kvstore.put", rung, &store, &mut model, &items.puts)?;
            let batch = self.put_batches(
                "kvstore.batch8_put",
                rung,
                &mut model,
                &items.puts,
                |pairs| {
                    let t = Instant::now();
                    let done = store.put_batch(pairs);
                    (t, Instant::now(), done)
                },
            )?;
            self.out.push("kvstore.get_ns", kv_get);
            self.out.push("kvstore.put_ns", kv_put);
            self.out.push("kvstore.batch8_put_ns", batch);
            self.out
                .push("kvstore.max_chain", store.max_chain()? as f64);
        }
        {
            let store = PmdkStore::create(spec.keys, POOL_BYTES, false)?;
            let mut model = self.preloaded(&store)?;
            let get = self.gets("kvstore.get.pmdk", rung, &store, &model, &items.gets)?;
            let put = self.puts("kvstore.put.pmdk", rung, &store, &mut model, &items.puts)?;
            self.out.push("core.spp_tax_get_ns", kv_get - get);
            self.out.push("core.spp_tax_put_ns", kv_put - put);
        }
        self.tr.close(rung);
        Ok(kv_get)
    }

    // ---- engine: KvEngine, then the same engine served -------------------
    /// Returns the served PUT's typical round trip, for the `repl` rung.
    fn engine_and_server(
        &mut self,
        root: u32,
        items: &Items,
        kv_get_ns: f64,
        n_sock: usize,
    ) -> Res<f64> {
        let engine = Engine::create(Policy::Spp, self.spec.keys)?;
        let mut model = Model::preloaded(self.spec.keys, self.spec.value_len, self.seed);
        preload(&engine, &model)?;

        let rung = self.tr.open("engine", root);
        let eng_get = self.gets("engine.get", rung, &engine, &model, &items.gets)?;
        let eng_put = self.puts("engine.put", rung, &engine, &mut model, &items.puts)?;
        let batch = self.put_batches(
            "engine.batch8_put",
            rung,
            &mut model,
            &items.puts,
            |pairs| {
                // Owning the bytes is the caller's (the decoder's) job.
                let batch = WriteBatch::puts(pairs.iter().copied());
                let t = Instant::now();
                let done = engine.apply(&batch);
                (t, Instant::now(), done)
            },
        )?;
        self.out.push("engine.get_ns", eng_get);
        self.out.push("engine.put_ns", eng_put);
        self.out.push("engine.batch8_put_ns", batch);
        self.out.push("engine.get_self_ns", eng_get - kv_get_ns);
        self.tr.close(rung);

        let beneath = Beneath {
            eng_get_ns: eng_get,
            eng_put_ns: eng_put,
        };
        let (put_rtt, device) = self.served(root, engine, model, &items.all[..n_sock], &beneath)?;

        let rung = self.tr.open("open", root);
        let (mut pool_ms, mut engine_ms, mut kept) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            let t = Instant::now();
            let (reopened, pool_s) = device.reopen(Policy::Spp)?;
            let e = Instant::now();
            engine_ms.push(self.tr.record("engine.open", rung, 0, t, e) / 1e6);
            pool_ms.push(pool_s * 1e3);
            // Kept alive, so the next open builds in untouched memory too
            // (see `workloads::measure`).
            kept.push(reopened);
        }
        self.out.push("pmdk.open_ms", need(&pool_ms, "pmdk.open")?);
        self.out
            .push("engine.open_ms", need(&engine_ms, "engine.open")?);
        self.tr.close(rung);
        Ok(put_rtt)
    }

    // ---- group + server: the engine served, one connection ---------------
    /// For every op of the stream in turn: a PING; for a PUT, a direct
    /// submission of the key's next version to a committer; then the op's
    /// round trip over the socket. Taking turns op by op, every figure meets
    /// the same cache state and the same slow phases of the host — measured
    /// one rung after the other, the direct submission ran hot and the
    /// served PUT cold, and a quarter of the PUT went unexplained.
    fn served(
        &mut self,
        root: u32,
        engine: Engine,
        model: Model,
        sock_items: &[Item],
        beneath: &Beneath,
    ) -> Res<(f64, sut::Device)> {
        let rung = self.tr.open("server", root);
        let group_rung = self.tr.open("group", root);
        let sock_puts: Vec<Item> = sock_items
            .iter()
            .filter(|it| it.op.kind == Kind::Put)
            .copied()
            .collect();
        let sock_ops: Vec<Op> = sock_items.iter().map(|it| it.op).collect();

        let mut rig = Rig::adopt(engine, &model, self.spec)?;
        drop(model);
        // A committer of the benchmark's own beside the server's: the same
        // engine, the same serving process, no socket in the way.
        let committer = Committer::start(rig.engine());
        let side = &mut rig.conns[0];
        let mut pings = Hist::default();
        let mut one = Vec::new();
        for it in sock_items {
            side.pings(1, &mut pings, |_, t, e| {
                self.tr.record("server.ping_rtt", rung, it.req, t, e);
            });
            if it.op.kind == Kind::Put {
                let key = key_bytes(it.op.key);
                let value = &mut self.bufs.values[0];
                side.model.next_value(it.op.key, value);
                let batch = WriteBatch::puts(std::iter::once((&key[..], &value[..])));
                let t = Instant::now();
                let done = committer.submit(batch);
                let e = Instant::now();
                one.push(self.tr.record("group.submit1", group_rung, it.req, t, e));
                self.audit.check(done.is_ok(), || {
                    format!("group.submit1 key {}: {done:?}", it.op.key)
                });
            }
            let name = match it.op.kind {
                Kind::Get => "server.get_rtt",
                Kind::Put => "server.put_rtt",
            };
            side.round_trips(&[it.op], |_, t, e| {
                self.tr.record(name, rung, it.req, t, e);
            });
        }
        let (get_hist, put_hist) = (side.get.clone(), side.put.clone());
        let eight = self.put_batches(
            "group.submit8",
            group_rung,
            &mut side.model,
            &sock_puts,
            |pairs| {
                let batch = WriteBatch::puts(pairs.iter().copied());
                let t = Instant::now();
                let done = committer.submit(batch);
                (t, Instant::now(), done)
            },
        )?;
        committer.close();
        side.batches(
            &sock_ops,
            |_| Framing::Multi,
            |i, t, e| {
                self.tr
                    .record("server.multi8_rtt", rung, sock_items[i].req, t, e);
            },
        );
        let multi_hist = side.batch.clone();
        side.batch.clear();
        side.batches(
            &sock_ops,
            |_| Framing::Pipelined,
            |i, t, e| {
                self.tr
                    .record("server.pipe8_rtt", rung, sock_items[i].req, t, e);
            },
        );
        let pipe_hist = side.batch.clone();

        let typical = |h: &Hist, q: f64, what: &str| {
            h.quantile_us(q)
                .ok_or_else(|| format!("{what}: the stream has no such op"))
        };
        let submit1 = need(&one, "group.submit1")? / 1e3;
        let ping_rtt = typical(&pings, 0.5, "server.ping_rtt")?;
        let get_rtt = typical(&get_hist, 0.5, "server.get_rtt")?;
        let put_rtt = typical(&put_hist, 0.5, "server.put_rtt")?;
        let dispatch = get_rtt - ping_rtt - beneath.eng_get_ns / 1e3;
        let out = &mut self.out;
        out.push_n("group.submit1_us", submit1, one.len() as u64);
        // Per submission of eight, not per op.
        out.push("group.submit8_us", eight * BATCH as f64 / 1e3);
        out.push("group.submit_self_us", submit1 - beneath.eng_put_ns / 1e3);
        out.push_n("server.ping_rtt_us", ping_rtt, pings.count());
        out.push_n("server.get_rtt_us", get_rtt, get_hist.count());
        out.push_n("server.put_rtt_us", put_rtt, put_hist.count());
        out.push_n(
            "server.multi8_rtt_us",
            typical(&multi_hist, 0.5, "server.multi8_rtt")?,
            multi_hist.count(),
        );
        out.push_n(
            "server.pipe8_rtt_us",
            typical(&pipe_hist, 0.5, "server.pipe8_rtt")?,
            pipe_hist.count(),
        );
        // Tails of the one-connection rungs: diagnostics, not gates.
        let mut batch_hist = multi_hist.clone();
        batch_hist.merge(&pipe_hist);
        for (name, hist, q) in [
            ("client.get_p99_us", &get_hist, 0.99),
            ("client.get_p999_us", &get_hist, 0.999),
            ("client.put_p99_us", &put_hist, 0.99),
            ("client.batch_p99_us", &batch_hist, 0.99),
        ] {
            out.push_n(name, typical(hist, q, name)?, hist.count());
        }
        out.push("server.dispatch_us", dispatch);
        out.push(
            "trace.put_unattributed_frac",
            (put_rtt - (ping_rtt + dispatch + submit1)).abs() / put_rtt,
        );
        rig.conn0_wrote_everything();
        let device = rig.finish(&mut self.audit)?.device;
        self.tr.close(group_rung);
        self.tr.close(rung);
        Ok((put_rtt, device))
    }

    // ---- repl: the same PUTs through a replicating primary ---------------
    fn repl(&mut self, root: u32, sock_items: &[Item], put_rtt_us: f64) -> Res<()> {
        let rung = self.tr.open("repl", root);
        let puts: Vec<Item> = sock_items
            .iter()
            .filter(|it| it.op.kind == Kind::Put)
            .copied()
            .collect();
        let ops: Vec<Op> = puts.iter().map(|it| it.op).collect();
        let mut rig = Rig::setup(self.spec, self.seed, true)?;
        rig.conns[0].round_trips(&ops, |i, t, e| {
            self.tr.record("repl.put_rtt", rung, puts[i].req, t, e);
        });
        let repl_put = rig.conns[0]
            .put
            .quantile_us(0.5)
            .ok_or("repl.put_rtt: the stream has no PUT")?;
        let (shipped, failed) = rig.service().repl_stats();
        // Everything connection 0 wrote must be on the backup, byte-exact;
        // `finish` reads the whole key space back from both sides.
        rig.conn0_wrote_everything();
        let missing = rig.finish(&mut self.audit)?.backup_mismatches;
        self.out.push("repl.put_extra_us", repl_put - put_rtt_us);
        self.out.push(
            "repl.batches_per_put",
            shipped as f64 / ops.len().max(1) as f64,
        );
        self.out.push("repl.failed_batches", failed as f64);
        self.out.push("repl.backup_missing_keys", missing as f64);
        self.tr.close(rung);
        Ok(())
    }

    // ---- the workload's own path, untraced and traced ----------------------
    fn workload(&mut self, root: u32, n_ops: usize, n_sock: usize) -> Res<()> {
        let rung = self.tr.open("workload", root);
        let (spec, seed) = (self.spec, self.seed);
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        if spec.path == Path::Engine {
            let picker = KeyPicker::new(spec.keys, 0, 1, spec.dist);
            let mut side = EngineSide::setup(Policy::Spp, spec, seed)?;
            for pair in 0..OVERHEAD_PAIRS {
                let ops = stream(&picker, spec.get_pct, n_ops, seed, 0, 2 + 2 * pair);
                plain_s += side
                    .run(&ops, 0, &mut self.audit, |_, _, _| {})
                    .as_secs_f64();
                let ops = stream(&picker, spec.get_pct, n_ops, seed, 0, 3 + 2 * pair);
                let tr = &mut self.tr;
                traced_s += side
                    .run(&ops, 1, &mut self.audit, |i, t, e| {
                        tr.record("workload.op", rung, i as u32, t, e);
                    })
                    .as_secs_f64();
            }
        }
        // The server-side counters come from a socket replay: the
        // workload's own if it has sockets, a round-trip replay of its
        // stream if it has none.
        let sock_path = if spec.path == Path::Engine {
            Path::RoundTrip
        } else {
            spec.path
        };
        let per_conn = (n_sock / CONNS as usize).next_multiple_of(2 * BATCH);
        let ops = per_conn * CONNS as usize;
        let mut cost = ReplayCost::default();
        let mut rig = Rig::setup(spec, seed, spec.path == Path::ReplRoundTrip)?;
        let mut stamps: Vec<Vec<Stamp>> = vec![Vec::with_capacity(per_conn); CONNS as usize];
        for pair in 0..OVERHEAD_PAIRS {
            let streams = rig.streams(spec, per_conn, seed, 2 + 2 * pair);
            let before = ReplayCost::so_far(&rig)?;
            let wall = rig.round(sock_path, &streams, None).as_secs_f64();
            cost.add(&before, &ReplayCost::so_far(&rig)?, ops);
            if spec.path != Path::Engine {
                plain_s += wall;
                let streams = rig.streams(spec, per_conn, seed, 3 + 2 * pair);
                traced_s += rig
                    .round(sock_path, &streams, Some(&mut stamps))
                    .as_secs_f64();
                for (conn, stamps) in stamps.iter_mut().enumerate() {
                    for (i, t, e) in stamps.drain(..) {
                        // Connection c's request ids start at c << 24.
                        self.tr
                            .record("workload.op", rung, (conn << 24 | i) as u32, t, e);
                    }
                }
            }
        }
        let busy: u64 = rig.conns.iter().map(|side| side.busy).sum();
        rig.finish(&mut self.audit)?;
        let out = &mut self.out;
        out.push("trace.overhead_frac", 1.0 - plain_s / traced_s);
        out.push(
            "pmdk.lane_wait_us_per_op",
            cost.per_op(cost.lane_wait_ns) / 1e3,
        );
        out.push(
            "kvstore.stripe_wait_us_per_op",
            cost.per_op(cost.stripe_wait_ns) / 1e3,
        );
        out.push(
            "group.ops_per_boundary",
            cost.boundary_ops as f64 / cost.boundaries.max(1) as f64,
        );
        out.push(
            "server.ctx_switches_per_op",
            cost.per_op(cost.usage.ctx_switches),
        );
        out.push("server.cpu_user_us_per_op", cost.per_op(cost.usage.user_us));
        out.push("server.cpu_sys_us_per_op", cost.per_op(cost.usage.sys_us));
        out.push("server.busy_per_op", cost.per_op(busy));
        self.tr.close(rung);
        Ok(())
    }

    // ---- pm, pmdk, core: the primitives beneath the store -----------------
    fn primitives(&mut self, root: u32) -> Res<()> {
        let rung = self.tr.open("primitives", root);
        let mut prim = Primitives::new()?;
        let payload = vec![0xA5u8; 1024];
        let size = self.spec.value_len as u64;
        let many = 16 * BLOCK;
        let v = self.timed("pm.persist64", rung, BLOCK, &mut || {
            prim.persist(&payload[..64])
        })?;
        self.out.push("pm.persist64_ns", v);
        let v = self.timed("pm.persist1k", rung, BLOCK, &mut || prim.persist(&payload))?;
        self.out.push("pm.persist1k_ns", v);
        let v = self.timed("pmdk.alloc_free", rung, BLOCK, &mut || {
            prim.alloc_free(size)
        })?;
        self.out.push("pmdk.alloc_free_ns", v);
        let v = self.timed("pmdk.tx_commit1", rung, 16, &mut || prim.tx_commit(1, size))?;
        self.out.push("pmdk.tx_commit1_us", v / 1e3);
        let v = self.timed("pmdk.tx_commit8", rung, 4, &mut || prim.tx_commit(8, size))?;
        self.out.push("pmdk.tx_commit8_us", v / 1e3);
        let v = self.timed("pmdk.tx_commit64", rung, 1, &mut || {
            prim.tx_commit(64, size)
        })?;
        self.out.push("pmdk.tx_commit64_us", v / 1e3);
        let ptr = prim.spp_direct();
        let v = self.timed("core.direct", rung, many, &mut || {
            std::hint::black_box(prim.spp_direct());
            Ok(())
        })?;
        self.out.push("core.direct_ns", v);
        let v = self.timed("core.gep", rung, many, &mut || {
            std::hint::black_box(prim.spp_gep(ptr));
            Ok(())
        })?;
        self.out.push("core.gep_ns", v);
        let v = self.timed("core.resolve", rung, many, &mut || {
            prim.spp_resolve(ptr).map(drop)
        })?;
        self.out.push("core.resolve_ns", v);
        let v = self.timed("core.resolve.pmdk", rung, many, &mut || {
            prim.pmdk_resolve().map(drop)
        })?;
        self.out.push("core.resolve_pmdk_ns", v);
        self.tr.close(rung);
        Ok(())
    }

    // ---- durability: crash a tracked pool, lose nothing acked -------------
    fn durability(&mut self, root: u32) -> Res<()> {
        let rung = self.tr.open("durability", root);
        let small = Spec {
            keys: AUDIT_KEYS,
            ..*self.spec
        };
        let engine = Engine::create_tracked(Policy::Spp, small.keys, 64 << 20)?;
        let mut model = Model::preloaded(small.keys, small.value_len, self.seed);
        preload(&engine, &model)?;
        engine.reset_tracking();
        let picker = KeyPicker::new(small.keys, 0, 1, small.dist);
        let mut value = Vec::new();
        // PUT-only: only a write can be lost.
        for op in stream(&picker, 0, AUDIT_OPS, self.seed, 0, 0) {
            model.next_value(op.key, &mut value);
            let done = engine.put(&key_bytes(op.key), &value);
            self.audit.check(done.is_ok(), || {
                format!("durability PUT key {}: {done:?}", op.key)
            });
        }
        let t = Instant::now();
        let recovered = engine.crash_and_recover(Policy::Spp)?;
        self.tr
            .record("durability.crash_and_recover", rung, 0, t, Instant::now());
        readback(&recovered, &[&model], "recovered", &mut self.audit);
        self.tr.close(rung);
        Ok(())
    }
}

/// Device and policy calls of one counted pass, per op.
struct PerOp {
    pm: PmCounts,
    policy: PolicyCounts,
    ops: f64,
}

impl PerOp {
    fn between(store: &TracedSppStore, before: (PmCounts, PolicyCounts), ops: usize) -> PerOp {
        let (pm0, po0) = before;
        let (pm1, po1) = (store.pm_counts(), store.policy().counts());
        PerOp {
            pm: PmCounts {
                reads: pm1.reads - pm0.reads,
                bytes_read: pm1.bytes_read - pm0.bytes_read,
                writes: pm1.writes - pm0.writes,
                bytes_written: pm1.bytes_written - pm0.bytes_written,
                flushes: pm1.flushes - pm0.flushes,
                fences: pm1.fences - pm0.fences,
            },
            policy: PolicyCounts {
                directs: po1.directs - po0.directs,
                geps: po1.geps - po0.geps,
                resolves: po1.resolves - po0.resolves,
                allocs: po1.allocs - po0.allocs,
                frees: po1.frees - po0.frees,
            },
            ops: ops.max(1) as f64,
        }
    }

    fn per(&self, count: u64) -> f64 {
        count as f64 / self.ops
    }
}

/// What the process and the served engine have spent: totals so far
/// ([`ReplayCost::so_far`]), or what some replays of `ops` ops spent
/// ([`ReplayCost::add`]).
#[derive(Default)]
struct ReplayCost {
    ops: usize,
    usage: os::Usage,
    lane_wait_ns: u64,
    stripe_wait_ns: u64,
    boundaries: u64,
    boundary_ops: u64,
}

impl ReplayCost {
    fn so_far(rig: &Rig) -> Res<ReplayCost> {
        let (boundaries, boundary_ops) = rig.service().group_stats();
        Ok(ReplayCost {
            ops: 0,
            usage: os::usage().map_err(|e| e.to_string())?,
            lane_wait_ns: sut::lock_wait_ns("pmdk.lane"),
            stripe_wait_ns: sut::lock_wait_ns("kvstore.stripe"),
            boundaries,
            boundary_ops,
        })
    }

    /// Add what `ops` ops spent between the totals `before` and `after`.
    fn add(&mut self, before: &ReplayCost, after: &ReplayCost, ops: usize) {
        self.ops += ops;
        self.usage.user_us += after.usage.user_us - before.usage.user_us;
        self.usage.sys_us += after.usage.sys_us - before.usage.sys_us;
        self.usage.ctx_switches += after.usage.ctx_switches - before.usage.ctx_switches;
        self.lane_wait_ns += after.lane_wait_ns - before.lane_wait_ns;
        self.stripe_wait_ns += after.stripe_wait_ns - before.stripe_wait_ns;
        self.boundaries += after.boundaries - before.boundaries;
        self.boundary_ops += after.boundary_ops - before.boundary_ops;
    }

    fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// The traced run of `spec`: every per-layer metric, and the span file.
pub fn trace(spec: &Spec, seed: u64) -> Res<Outcome> {
    let n_ops = (spec.ops_per_round / 5).min(MAX_OPS);
    let n_sock = n_ops.min(MAX_SOCKET_OPS);
    let picker = KeyPicker::new(spec.keys, 0, 1, spec.dist);
    // Round 1's stream: the first timed round of the measured run.
    let items = Items::of(&stream(&picker, spec.get_pct, n_ops, seed, 0, 1));
    let mut ladder = Ladder {
        spec,
        seed,
        tr: Tracer::new(16 * n_ops / BLOCK + 8 * n_sock + 4 * n_ops + 4096),
        bufs: Bufs::new(),
        audit: Audit::default(),
        out: Outcome::default(),
    };
    let root = ladder.tr.open("trace", NO_PARENT);
    ladder.wire(root, &items)?;
    ladder.ring(root, &items)?;
    let kv_get_ns = ladder.kvstore(root, &items)?;
    let put_rtt_us = ladder.engine_and_server(root, &items, kv_get_ns, n_sock)?;
    ladder.repl(root, &items.all[..n_sock], put_rtt_us)?;
    ladder.workload(root, n_ops, n_sock)?;
    ladder.primitives(root)?;
    ladder.durability(root)?;
    ladder.tr.close(root);

    let Ladder {
        tr, audit, mut out, ..
    } = ladder;
    out.push("trace.spans", tr.spans.len() as f64);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", spec.name));
    std::fs::write(&path, tr.to_json(spec, seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.audit = audit;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Dist;
    use crate::metrics::LAYERS;

    #[test]
    fn the_ladder_reports_every_layer_metric_and_writes_spans() {
        for (path, name) in [(Path::Engine, "test_engine"), (Path::Pipe8, "test_pipe")] {
            let spec = Spec {
                name,
                why: "",
                path,
                keys: 2_000,
                value_len: 100,
                get_pct: 50,
                dist: Dist::Zipf(0.99),
                ops_per_round: 16_000,
                replay_ops: 16_000,
            };
            let out = trace(&spec, 5).unwrap();
            assert_eq!(out.audit.failed, 0, "{:?}", out.audit.examples);
            for m in LAYERS {
                let v = out
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{name} lacks {}", m.name));
                assert!(v.is_finite(), "{} = {v}", m.name);
            }
            assert_eq!(out.values.len(), LAYERS.len());
            // Exact counts of a chained hash map with SPP+T's checks on.
            assert!(out.get("core.resolves_per_get").unwrap() >= 4.0);
            assert!(out.get("pm.fences_per_put").unwrap() >= 1.0);
            assert_eq!(out.get("pmdk.allocs_per_put"), Some(1.0));
            assert_eq!(out.get("pmdk.frees_per_put"), Some(1.0));
            assert_eq!(out.get("repl.backup_missing_keys"), Some(0.0));
            assert_eq!(out.get("repl.failed_batches"), Some(0.0));
            let file = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace_");
            let json = std::fs::read_to_string(format!("{file}{name}.json")).unwrap();
            assert!(json.contains("\"engine.get\"") && json.contains("\"repl.put_rtt\""));
            assert_eq!(
                json.lines().count() as f64,
                out.get("trace.spans").unwrap() + 2.0,
                "one line per span between the header and the footer"
            );
            std::fs::remove_file(format!("{file}{name}.json")).unwrap();
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_counts() {
        let spec = Spec {
            name: "test_counts",
            why: "",
            path: Path::Engine,
            keys: 1_000,
            value_len: 64,
            get_pct: 50,
            dist: Dist::Uniform,
            ops_per_round: 10_000,
            replay_ops: 10_000,
        };
        let a = trace(&spec, 9).unwrap();
        let b = trace(&spec, 9).unwrap();
        std::fs::remove_file(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/out/trace_test_counts.json"
        ))
        .unwrap();
        for name in crate::metrics::EXACT {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
    }
}
