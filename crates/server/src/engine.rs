//! Policy selection and the engine the server serves.
//!
//! [`KvEngine`] wraps one [`spp_kvstore::KvStore`] instantiated under one
//! of the three benchmark policies (`--policy pmdk|spp|safepm`), so
//! end-to-end safety overhead is measurable over the wire. The engine owns
//! the durable attachment protocol: on [`KvEngine::create`] the store's
//! meta oid is published into the pool root, and [`KvEngine::open`] (the
//! restart / post-crash path) reads it back after full pmdk recovery.

use std::sync::Arc;

use spp_core::{MemoryPolicy, PmdkPolicy, Result, SppError, SppPolicy, TagConfig};
use spp_kvstore::{BatchOp, BatchOutcome, KvStats, KvStore, KEY_SIZE};
use spp_pm::{Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, OidDest, PoolOpts};
use spp_safepm::SafePmPolicy;

/// Bytes reserved in the pool root for the engine meta oid (the widest
/// encoding, SPP's 24-byte oid, plus slack).
const ROOT_SIZE: u64 = 32;

/// The three servable memory-safety policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Native PMDK (no safety mechanism).
    Pmdk,
    /// Safe persistent pointers (tagged oids, overflow bit).
    Spp,
    /// SafePM persistent shadow memory.
    SafePm,
}

impl PolicyKind {
    /// All policies, baseline first.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Pmdk, PolicyKind::Spp, PolicyKind::SafePm];

    /// CLI / results label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Pmdk => "pmdk",
            PolicyKind::Spp => "spp",
            PolicyKind::SafePm => "safepm",
        }
    }

    /// Parse a `--policy` value.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.to_ascii_lowercase().as_str() {
            "pmdk" => Some(PolicyKind::Pmdk),
            "spp" => Some(PolicyKind::Spp),
            "safepm" => Some(PolicyKind::SafePm),
            _ => None,
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        PolicyKind::parse(s).ok_or_else(|| format!("unknown policy `{s}` (pmdk|spp|safepm)"))
    }
}

/// Create a fresh simulated device + object pool for the server.
///
/// `tracked` selects [`Mode::Tracked`] (crash-injection test rigs) over the
/// default [`Mode::Fast`] (benchmarks / serving).
pub fn fresh_server_pool(bytes: u64, lanes: usize, tracked: bool) -> Result<Arc<ObjPool>> {
    let mode = if tracked { Mode::Tracked } else { Mode::Fast };
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(bytes).mode(mode).record_stats(false),
    ));
    Ok(Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(lanes))?))
}

/// Create a server pool whose fences pay an *overlappable* wall-clock
/// device wait to drain the flushes before them
/// ([`spp_pm::LatencyModel::device_wait`]) — the substrate for
/// the load generator's thread sweep, where N connections must overlap
/// their durability stalls the way N cores do on real PM. Latency starts
/// disabled so engine setup runs at DRAM speed; call
/// `pool.pm().set_latency_enabled(true)` around the measured region.
pub fn fresh_server_pool_wait(
    bytes: u64,
    lanes: usize,
    flush_wait_ns: u32,
) -> Result<Arc<ObjPool>> {
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(bytes)
            .record_stats(false)
            .latency(spp_pm::LatencyModel::device_wait(flush_wait_ns)),
    ));
    pm.set_latency_enabled(false);
    Ok(Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(lanes))?))
}

/// One mutation in a group-committed write batch (owned — batches cross
/// thread boundaries on their way to the shard's commit leader).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert or update.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove a key.
    Del {
        /// The key.
        key: Vec<u8>,
    },
}

impl WriteOp {
    /// The key this op touches.
    pub fn key(&self) -> &[u8] {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Del { key } => key,
        }
    }
}

/// Per-op result of [`KvEngine::apply_write_batch`], index-aligned with
/// the submitted ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteReply {
    /// Applied: a put, or a delete that removed an existing key.
    Ok,
    /// Delete found nothing.
    NotFound,
    /// The op failed (bad key, engine error); the rest of the batch is
    /// unaffected — failed-validation ops are excluded before staging and
    /// engine errors fall back to per-op transactions.
    Err(String),
}

/// The KV store under one concrete policy. Dispatch is a three-way match —
/// the policies are statically known and `KvStore` is generic, so no trait
/// object can cover all three without erasing the policy surface.
pub enum KvEngine {
    /// Native PMDK.
    Pmdk(KvStore<PmdkPolicy>),
    /// Safe persistent pointers.
    Spp(KvStore<SppPolicy>),
    /// SafePM shadow memory.
    SafePm(KvStore<SafePmPolicy>),
}

macro_rules! dispatch {
    ($self:expr, $kv:ident => $body:expr) => {
        match $self {
            KvEngine::Pmdk($kv) => $body,
            KvEngine::Spp($kv) => $body,
            KvEngine::SafePm($kv) => $body,
        }
    };
}

impl KvEngine {
    /// Build a fresh engine over `pool` with `nbuckets` hash buckets and
    /// publish its meta oid in the pool root so [`KvEngine::open`] can
    /// re-attach after a restart.
    ///
    /// # Errors
    ///
    /// Policy construction or allocation errors.
    pub fn create(pool: Arc<ObjPool>, kind: PolicyKind, nbuckets: u64) -> Result<KvEngine> {
        let root = pool.root(ROOT_SIZE)?;
        let engine = match kind {
            PolicyKind::Pmdk => {
                let policy = Arc::new(PmdkPolicy::new(Arc::clone(&pool)));
                KvEngine::Pmdk(KvStore::create(policy, nbuckets)?)
            }
            PolicyKind::Spp => {
                let policy = Arc::new(SppPolicy::new(Arc::clone(&pool), TagConfig::default())?);
                KvEngine::Spp(KvStore::create(policy, nbuckets)?)
            }
            PolicyKind::SafePm => {
                let policy = Arc::new(SafePmPolicy::create(Arc::clone(&pool))?);
                KvEngine::SafePm(KvStore::create(policy, nbuckets)?)
            }
        };
        let (meta, oid_kind) = dispatch!(&engine, kv => (kv.meta(), kv.policy().oid_kind()));
        pool.publish_oid(
            OidDest {
                off: root.off,
                kind: oid_kind,
            },
            meta,
        )?;
        Ok(engine)
    }

    /// Re-attach to an engine created earlier in this pool — the restart /
    /// post-crash path, entered after `ObjPool::open` has already run full
    /// pmdk recovery on the device.
    ///
    /// # Errors
    ///
    /// A [`SppError::Pmdk`] bad-pool error when no engine meta was ever
    /// published, when the pool was created under another policy (its
    /// SafePM shadow, or a meta block `KvStore::open` cannot serve, gives
    /// it away); policy reopen errors.
    pub fn open(pool: Arc<ObjPool>, kind: PolicyKind) -> Result<KvEngine> {
        let root = pool.root(ROOT_SIZE)?;
        let bad = || {
            SppError::Pmdk(spp_pmdk::PmdkError::BadPool(
                "pool root holds no kv engine meta oid".into(),
            ))
        };
        // A SafePM pool records its shadow in the user slot; the oid
        // encoding is PMDK's, so the meta block alone cannot tell it apart,
        // and serving it unshadowed would leave every later allocation
        // poisoned for SafePM. `SafePmPolicy::open` is the converse check.
        if kind != PolicyKind::SafePm && pool.user_slot()? != 0 {
            return Err(SppError::Pmdk(spp_pmdk::PmdkError::BadPool(
                "pool was instrumented with SafePM; open it under safepm".into(),
            )));
        }
        match kind {
            PolicyKind::Pmdk => {
                let policy = Arc::new(PmdkPolicy::new(Arc::clone(&pool)));
                let meta = pool.oid_read(root.off, policy.oid_kind())?;
                if meta.is_null() {
                    return Err(bad());
                }
                Ok(KvEngine::Pmdk(KvStore::open(policy, meta)?))
            }
            PolicyKind::Spp => {
                let policy = Arc::new(SppPolicy::new(Arc::clone(&pool), TagConfig::default())?);
                let meta = pool.oid_read(root.off, policy.oid_kind())?;
                if meta.is_null() {
                    return Err(bad());
                }
                Ok(KvEngine::Spp(KvStore::open(policy, meta)?))
            }
            PolicyKind::SafePm => {
                let policy = Arc::new(SafePmPolicy::open(Arc::clone(&pool))?);
                let meta = pool.oid_read(root.off, policy.oid_kind())?;
                if meta.is_null() {
                    return Err(bad());
                }
                Ok(KvEngine::SafePm(KvStore::open(policy, meta)?))
            }
        }
    }

    /// The policy this engine runs under.
    pub fn kind(&self) -> PolicyKind {
        match self {
            KvEngine::Pmdk(_) => PolicyKind::Pmdk,
            KvEngine::Spp(_) => PolicyKind::Spp,
            KvEngine::SafePm(_) => PolicyKind::SafePm,
        }
    }

    /// The underlying object pool.
    pub fn pool(&self) -> &Arc<ObjPool> {
        dispatch!(self, kv => kv.policy().pool())
    }

    /// Insert or update; durable (flushed + fenced) when this returns.
    ///
    /// # Errors
    ///
    /// Engine errors, including a non-[`KEY_SIZE`] key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        check_key(key)?;
        dispatch!(self, kv => kv.put(key, value))
    }

    /// Look up `key`, appending the value to `out`.
    ///
    /// # Errors
    ///
    /// Engine errors, including a non-[`KEY_SIZE`] key.
    pub fn get(&self, key: &[u8], out: &mut Vec<u8>) -> Result<bool> {
        check_key(key)?;
        dispatch!(self, kv => kv.get(key, out))
    }

    /// Remove `key`; durable when this returns.
    ///
    /// # Errors
    ///
    /// Engine errors, including a non-[`KEY_SIZE`] key.
    pub fn remove(&self, key: &[u8]) -> Result<bool> {
        check_key(key)?;
        dispatch!(self, kv => kv.remove(key))
    }

    /// Entry count (full scan).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn count(&self) -> Result<u64> {
        dispatch!(self, kv => kv.count())
    }

    /// Introspection snapshot.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn stats(&self) -> Result<KvStats> {
        dispatch!(self, kv => kv.stats())
    }

    /// Visit every entry (the scan primitive, re-exported at the service
    /// layer for verification tooling).
    ///
    /// # Errors
    ///
    /// Device errors or the first callback error.
    pub fn for_each(&self, f: impl FnMut(&[u8; KEY_SIZE], &[u8]) -> Result<()>) -> Result<u64> {
        dispatch!(self, kv => kv.for_each(f))
    }

    /// Apply a batch of writes through the group-commit path: every op
    /// with a valid key is staged into **one** engine transaction and made
    /// durable by **one** flush+fence boundary ([`KvStore::apply_batch`]).
    /// Replies are index-aligned with `ops`.
    ///
    /// Failure containment: ops with invalid keys get [`WriteReply::Err`]
    /// and are excluded before staging. If the batched transaction itself
    /// fails (e.g. the shared undo log overflows on an oversized batch),
    /// nothing was applied and every op is retried in its own per-op
    /// transaction — batching is a throughput optimisation, never a
    /// correctness cliff.
    pub fn apply_write_batch(&self, ops: &[WriteOp]) -> Vec<WriteReply> {
        let mut replies = vec![WriteReply::Ok; ops.len()];
        let mut valid: Vec<usize> = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            match check_key(op.key()) {
                Ok(()) => valid.push(i),
                Err(e) => replies[i] = WriteReply::Err(e.to_string()),
            }
        }
        if valid.is_empty() {
            return replies;
        }
        let batch: Vec<BatchOp<'_>> = valid
            .iter()
            .map(|&i| match &ops[i] {
                WriteOp::Put { key, value } => BatchOp::Put { key, value },
                WriteOp::Del { key } => BatchOp::Del { key },
            })
            .collect();
        match dispatch!(self, kv => kv.apply_batch(&batch)) {
            Ok(outcomes) => {
                for (&i, outcome) in valid.iter().zip(&outcomes) {
                    replies[i] = match outcome {
                        BatchOutcome::Put | BatchOutcome::Removed => WriteReply::Ok,
                        BatchOutcome::Missed => WriteReply::NotFound,
                    };
                }
            }
            Err(_) => {
                // Rolled back in full; apply each op individually.
                for &i in &valid {
                    replies[i] = match &ops[i] {
                        WriteOp::Put { key, value } => match self.put(key, value) {
                            Ok(()) => WriteReply::Ok,
                            Err(e) => WriteReply::Err(e.to_string()),
                        },
                        WriteOp::Del { key } => match self.remove(key) {
                            Ok(true) => WriteReply::Ok,
                            Ok(false) => WriteReply::NotFound,
                            Err(e) => WriteReply::Err(e.to_string()),
                        },
                    };
                }
            }
        }
        replies
    }

    /// Drain outstanding device writes: a pool-level fence. Acked writes
    /// are already durable; this exists for clients that want an explicit
    /// global barrier.
    pub fn fence(&self) {
        self.pool().pm().fence();
    }
}

fn check_key(key: &[u8]) -> Result<()> {
    // KvStore asserts on key length; a network service must reject, not
    // abort, so validate here and surface a typed error.
    if key.len() == KEY_SIZE {
        Ok(())
    } else {
        Err(SppError::Pmdk(spp_pmdk::PmdkError::BadPool(format!(
            "key must be exactly {KEY_SIZE} bytes, got {}",
            key.len()
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::CrashSpec;

    fn key(i: u64) -> [u8; KEY_SIZE] {
        let mut k = [0u8; KEY_SIZE];
        k[..8].copy_from_slice(&i.to_be_bytes());
        k
    }

    #[test]
    fn create_roundtrip_under_all_policies() {
        for kind in PolicyKind::ALL {
            let pool = fresh_server_pool(8 << 20, 4, false).unwrap();
            let engine = KvEngine::create(pool, kind, 64).unwrap();
            assert_eq!(engine.kind(), kind);
            engine.put(&key(1), b"v1").unwrap();
            let mut out = Vec::new();
            assert!(engine.get(&key(1), &mut out).unwrap());
            assert_eq!(out, b"v1");
            assert!(engine.remove(&key(1)).unwrap());
            assert!(!engine.remove(&key(1)).unwrap());
            assert_eq!(engine.stats().unwrap().keys, 0);
        }
    }

    #[test]
    fn bad_key_length_is_an_error_not_a_panic() {
        let pool = fresh_server_pool(4 << 20, 2, false).unwrap();
        let engine = KvEngine::create(pool, PolicyKind::Spp, 16).unwrap();
        assert!(engine.put(b"short", b"v").is_err());
        assert!(engine.get(b"", &mut Vec::new()).is_err());
        assert!(engine.remove(&[0; 64]).is_err());
    }

    #[test]
    fn write_batch_mixed_outcomes_under_all_policies() {
        for kind in PolicyKind::ALL {
            let pool = fresh_server_pool(16 << 20, 4, false).unwrap();
            let engine = KvEngine::create(pool, kind, 64).unwrap();
            engine.put(&key(50), b"old").unwrap();
            let ops = vec![
                WriteOp::Put {
                    key: key(1).to_vec(),
                    value: b"batch-1".to_vec(),
                },
                WriteOp::Del {
                    key: key(50).to_vec(),
                },
                WriteOp::Del {
                    key: key(99).to_vec(),
                },
                WriteOp::Put {
                    key: b"short".to_vec(), // invalid key
                    value: b"x".to_vec(),
                },
                WriteOp::Put {
                    key: key(2).to_vec(),
                    value: b"batch-2".to_vec(),
                },
            ];
            let replies = engine.apply_write_batch(&ops);
            assert_eq!(replies[0], WriteReply::Ok, "{kind:?}");
            assert_eq!(replies[1], WriteReply::Ok);
            assert_eq!(replies[2], WriteReply::NotFound);
            assert!(matches!(replies[3], WriteReply::Err(_)));
            assert_eq!(replies[4], WriteReply::Ok);
            let mut out = Vec::new();
            assert!(engine.get(&key(1), &mut out).unwrap());
            assert_eq!(out, b"batch-1");
            assert!(!engine.get(&key(50), &mut Vec::new()).unwrap());
            assert_eq!(engine.count().unwrap(), 2);
        }
    }

    #[test]
    fn oversized_write_batch_falls_back_to_per_op() {
        // Build an engine over a pool with a tiny undo log, so the merged
        // batch transaction overflows and the per-op fallback kicks in —
        // every op must still land.
        let pm = Arc::new(PmPool::new(PoolConfig::new(32 << 20)));
        let pool =
            Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(4).undo_capacity(2048)).unwrap());
        let engine = KvEngine::create(pool, PolicyKind::Spp, 256).unwrap();
        let ops: Vec<WriteOp> = (0..400u64)
            .map(|i| WriteOp::Put {
                key: key(i).to_vec(),
                value: format!("fallback-{i}").into_bytes(),
            })
            .collect();
        let replies = engine.apply_write_batch(&ops);
        assert!(replies.iter().all(|r| *r == WriteReply::Ok));
        assert_eq!(engine.count().unwrap(), 400);
        let mut out = Vec::new();
        assert!(engine.get(&key(399), &mut out).unwrap());
        assert_eq!(out, b"fallback-399");
    }

    #[test]
    fn open_reattaches_after_clean_image_reload() {
        for kind in PolicyKind::ALL {
            let pool = fresh_server_pool(8 << 20, 4, false).unwrap();
            let engine = KvEngine::create(Arc::clone(&pool), kind, 64).unwrap();
            for i in 0..20u64 {
                engine.put(&key(i), format!("val-{i}").as_bytes()).unwrap();
            }
            let img = pool.pm().crash_image(CrashSpec::KeepAll);
            drop(engine);
            let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
            let pool2 = Arc::new(ObjPool::open(pm2).unwrap());
            let engine2 = KvEngine::open(pool2, kind).unwrap();
            assert_eq!(engine2.count().unwrap(), 20);
            let mut out = Vec::new();
            assert!(engine2.get(&key(7), &mut out).unwrap());
            assert_eq!(out, b"val-7");
        }
    }

    /// A 20-key engine created under `create`, its pool image reopened
    /// under `open`.
    fn reopen_under(create: PolicyKind, open: PolicyKind) -> Result<KvEngine> {
        let pool = fresh_server_pool(8 << 20, 4, false).unwrap();
        let engine = KvEngine::create(Arc::clone(&pool), create, 64).unwrap();
        for i in 0..20u64 {
            engine.put(&key(i), format!("val-{i}").as_bytes()).unwrap();
        }
        let img = pool.pm().crash_image(CrashSpec::KeepAll);
        drop(engine);
        let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
        KvEngine::open(Arc::new(ObjPool::open(pm2).unwrap()), open)
    }

    #[test]
    fn a_pool_opens_only_under_the_policy_that_created_it() {
        // The meta block's layout word names the oid size its nodes were
        // built for, and a SafePM pool records its shadow; there is no
        // policy descriptor yet. Each cross pair must be refused at open —
        // never served, never a panic.
        for create in PolicyKind::ALL {
            for open in PolicyKind::ALL {
                let got = reopen_under(create, open);
                if create != open {
                    let err = got.err().map(|e| e.to_string());
                    assert!(
                        matches!(&err, Some(m) if m.contains("invalid pool")),
                        "{create:?} -> {open:?}: {err:?}"
                    );
                    continue;
                }
                let engine = got.unwrap();
                assert_eq!(engine.count().unwrap(), 20);
                assert_eq!(engine.stats().unwrap().keys, 20);
                let mut out = Vec::new();
                assert!(engine.get(&key(7), &mut out).unwrap());
                assert_eq!(out, b"val-7");
                assert!(engine.remove(&key(3)).unwrap());
                engine.put(&key(99), b"new").unwrap();
            }
        }
    }

    #[test]
    fn open_refuses_a_store_whose_layout_word_is_gone_or_altered() {
        // The kv meta block begins with its node-layout word. Clear it, or
        // alter one byte, and reopen: a typed bad-pool error, no engine.
        for kind in PolicyKind::ALL {
            for alter in [|_: u64| 0, |w: u64| w ^ (1 << 48)] {
                let pool = fresh_server_pool(8 << 20, 4, false).unwrap();
                let engine = KvEngine::create(Arc::clone(&pool), kind, 64).unwrap();
                engine.put(&key(1), b"v").unwrap();
                let meta = dispatch!(&engine, kv => kv.meta());
                let word = pool.read_u64(meta.off).unwrap();
                pool.write_u64(meta.off, alter(word)).unwrap();
                let img = pool.pm().crash_image(CrashSpec::KeepAll);
                drop(engine);
                let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
                let err = KvEngine::open(Arc::new(ObjPool::open(pm2).unwrap()), kind).err();
                assert!(
                    matches!(
                        &err,
                        Some(SppError::Pmdk(spp_pmdk::PmdkError::BadPool(m))) if m.contains("node layout")
                    ),
                    "{kind:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn open_fresh_pool_reports_missing_meta() {
        let pool = fresh_server_pool(4 << 20, 2, false).unwrap();
        assert!(KvEngine::open(pool, PolicyKind::Pmdk).is_err());
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(PolicyKind::parse("SPP"), Some(PolicyKind::Spp));
        assert_eq!(PolicyKind::parse("pmdk"), Some(PolicyKind::Pmdk));
        assert_eq!(PolicyKind::parse("safepm"), Some(PolicyKind::SafePm));
        assert_eq!(PolicyKind::parse("redis"), None);
        assert_eq!("spp".parse::<PolicyKind>().unwrap(), PolicyKind::Spp);
    }
}
