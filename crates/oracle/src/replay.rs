//! Trace replay under one policy: every legal op is checked byte-exact
//! against the reference model, every illegal probe against the
//! guarantee matrix, and every crash-at-boundary op against the torture
//! rig's recovery oracle.

use std::fmt;
use std::sync::Arc;

use spp_core::{MemoryPolicy, PmdkPolicy, SppError, SppPolicy, TagConfig, TypedOid};
use spp_kvstore::KvStore;
use spp_pm::{CrashImage, Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PmdkError, PmemOid, PoolOpts, RecoveryFaults};
use spp_pmemcheck::{explore, Plan};
use spp_ripe::{expected_cell, Cell, Family, MemcheckPolicy, Protection, CHUNK};
use spp_safepm::SafePmPolicy;
use spp_torture::{make_oracle, Oracle as TortureOracle};

use crate::model::{key_bytes, pattern_bytes, CrashExpect, Model, Predicted};
use crate::trace::{Op, NSLOTS, NTYPED};

/// Size of the per-trace simulated PM device.
pub const POOL_BYTES: u64 = 1 << 20;
/// The wilderness probe targets this far below the end of the pool —
/// far above anything a trace allocates, far below the mapping edge.
pub const WILDERNESS_BACKOFF: u64 = 64 * 1024;
/// Buckets of the per-trace KV store.
pub const NBUCKETS: u64 = 16;
/// Recovery-idempotence stride passed to the torture oracle.
const IDEMPOTENCE_STRIDE: u64 = 4;

/// Per-policy replay counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOutcome {
    /// Ops executed (preconditions met).
    pub ops: u64,
    /// Probes executed (legal and illegal).
    pub probes: u64,
    /// Crash images captured, recovered and verified.
    pub crash_checks: u64,
}

/// One model/policy or matrix divergence: where the replay stopped and
/// why, plus the pool image at that instant for the failure dump.
#[derive(Clone)]
pub struct Divergence {
    /// Index of the diverging op in the trace.
    pub op_index: usize,
    /// Label of the diverging policy.
    pub policy: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Pool bytes at the moment of divergence.
    pub image: Vec<u8>,
}

impl fmt::Debug for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Divergence")
            .field("op_index", &self.op_index)
            .field("policy", &self.policy)
            .field("detail", &self.detail)
            .field("image_len", &self.image.len())
            .finish()
    }
}

/// What a probe load actually did under the policy.
#[derive(Debug, Clone)]
enum Observed {
    /// The load succeeded and returned this byte.
    Hit(u8),
    /// The policy's mechanism detected the access.
    Caught(&'static str),
    /// The access crashed at the mapping edge.
    Fault,
    /// The allocator refused the operation with an API error — the
    /// expected fate of a double free of a generation-less oid
    /// ([`Cell::Rejected`]). The message is only read through the
    /// derived `Debug` rendering in divergence reports.
    Rejected(#[allow(dead_code)] String),
    /// Any other error (always a divergence).
    Other(String),
}

fn probe_load<P: MemoryPolicy>(policy: &P, ptr: u64) -> Observed {
    let mut b = [0u8; 1];
    match policy.load(ptr, &mut b) {
        Ok(()) => Observed::Hit(b[0]),
        Err(
            SppError::OverflowDetected { mechanism, .. }
            | SppError::TemporalViolation { mechanism, .. },
        ) => Observed::Caught(mechanism),
        Err(SppError::Fault { .. }) => Observed::Fault,
        Err(e) => Observed::Other(format!("{e}")),
    }
}

/// Classify a deliberately-illegal oid-level *operation* (the second free
/// of [`Op::ProbeDoubleFree`]): a silent `Ok` is a hit, a diagnosed
/// violation is a catch, any other allocator error is the API rejecting
/// the operation.
fn probe_free<P: MemoryPolicy>(policy: &P, oid: PmemOid) -> Observed {
    match policy.free(oid) {
        Ok(()) => Observed::Hit(0),
        Err(
            SppError::OverflowDetected { mechanism, .. }
            | SppError::TemporalViolation { mechanism, .. },
        ) => Observed::Caught(mechanism),
        Err(SppError::Fault { .. }) => Observed::Fault,
        Err(e) => Observed::Rejected(format!("{e}")),
    }
}

/// The deliberate CI fault-injections into the expected matrix — a
/// healthy oracle must report the flipped cell as a divergence.
#[derive(Debug, Clone, Copy, Default)]
pub struct BreakSpec {
    /// Flip (adjacent-same-chunk, SafePM) to `Hit` — the spatial
    /// must-stay-red check.
    pub matrix: bool,
    /// Flip (ABA-reuse, SPP) to `Hit` — the temporal must-stay-red check
    /// (the one cell only the generation tag separates).
    pub temporal: bool,
}

/// The expected matrix cell, with any [`BreakSpec`] fault applied.
fn expected(family: Family, protection: Protection, breaks: BreakSpec) -> Cell {
    if breaks.matrix
        && matches!(family, Family::AdjacentSameChunk)
        && matches!(protection, Protection::SafePm)
    {
        return Cell::Hit;
    }
    if breaks.temporal
        && matches!(family, Family::AbaReuse)
        && matches!(protection, Protection::Spp)
    {
        return Cell::Hit;
    }
    expected_cell(family, protection)
}

/// Check an observation against its matrix cell; `Caught` must also name
/// the mechanism this protection uses *for this family* (SPP catches
/// spatial families with the overflow bit but temporal ones with the
/// SPP+T generation tag).
fn conform(
    obs: &Observed,
    want: Cell,
    protection: Protection,
    family: Family,
) -> Result<(), String> {
    match (obs, want) {
        (Observed::Hit(_), Cell::Hit)
        | (Observed::Fault, Cell::Fault)
        | (Observed::Rejected(_), Cell::Rejected) => Ok(()),
        (Observed::Caught(m), Cell::Caught) => {
            if Some(*m) == protection.mechanism_for(family) {
                Ok(())
            } else {
                Err(format!(
                    "caught via mechanism {m:?}, expected {:?}",
                    protection.mechanism_for(family)
                ))
            }
        }
        (Observed::Other(e), _) => Err(format!("probe raised unexpected error: {e}")),
        _ => Err(format!(
            "observed {obs:?}, guarantee matrix expects {want:?}"
        )),
    }
}

fn diverge(pm: &PmPool, policy: &'static str, op_index: usize, detail: String) -> Divergence {
    Divergence {
        op_index,
        policy,
        detail,
        image: pm.contents(),
    }
}

/// Everything the crash-recovery check needs, captured at the crash op.
struct CrashCtx {
    meta: PmemOid,
    expect: CrashExpect,
}

/// Per-policy factory for the recovery oracle: each replay variant
/// reopens the recovered pool under its own policy type.
type CrashFactory<'a> = &'a dyn Fn(CrashCtx) -> TortureOracle;

/// The recovery contract for the crash put: every entry committed before
/// it is readable byte-exact, and the in-flight entry is atomic —
/// either absent or complete.
fn kv_verify<P: MemoryPolicy>(policy: Arc<P>, ctx: &CrashCtx) -> Result<(), String> {
    let kv = KvStore::open(policy, ctx.meta).map_err(|e| format!("kv reopen failed: {e}"))?;
    let mut out = Vec::new();
    for (k, v) in &ctx.expect.snapshot {
        out.clear(); // get() appends to the buffer
        match kv.get(k, &mut out) {
            Ok(true) if out == *v => {}
            Ok(true) => return Err(format!("key {:#04x}: torn value after crash", k[0])),
            Ok(false) => return Err(format!("key {:#04x}: committed entry lost in crash", k[0])),
            Err(e) => return Err(format!("key {:#04x}: GET raised `{e}` after crash", k[0])),
        }
    }
    out.clear();
    match kv.get(&ctx.expect.key, &mut out) {
        Ok(true) if out == ctx.expect.val => Ok(()),
        Ok(true) => Err("in-flight put visible but torn after crash".into()),
        Ok(false) => Ok(()), // all-or-nothing: absent is fine
        Err(e) => Err(format!("in-flight key GET raised `{e}` after crash")),
    }
}

/// Replay `ops` under `protection` on a fresh tracked pool.
///
/// # Errors
///
/// The first [`Divergence`] found: a legal op whose observable result
/// differs from the reference model, or an illegal probe landing in the
/// wrong cell of the guarantee matrix.
pub fn replay(
    ops: &[Op],
    protection: Protection,
    breaks: BreakSpec,
) -> Result<ReplayOutcome, Divergence> {
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(POOL_BYTES)
            .mode(Mode::Tracked)
            .record_stats(false),
    ));
    let pool = Arc::new(
        ObjPool::create(Arc::clone(&pm), PoolOpts::small().lanes(1)).expect("oracle pool create"),
    );
    let faults = RecoveryFaults::default();
    match protection {
        Protection::Pmdk => {
            let policy = Arc::new(PmdkPolicy::new(pool));
            run_policy(ops, &policy, protection, breaks, &|ctx| {
                make_oracle(faults, IDEMPOTENCE_STRIDE, move |rp, _| {
                    kv_verify(Arc::new(PmdkPolicy::new(Arc::clone(&rp.pool))), &ctx)
                })
            })
        }
        Protection::Memcheck => {
            let policy = Arc::new(MemcheckPolicy::new(pool));
            // The chunk map is volatile (valgrind does not survive the
            // process): after a crash the store reopens under the native
            // policy, exactly like a real memcheck-supervised restart.
            run_policy(ops, &policy, protection, breaks, &|ctx| {
                make_oracle(faults, IDEMPOTENCE_STRIDE, move |rp, _| {
                    kv_verify(Arc::new(PmdkPolicy::new(Arc::clone(&rp.pool))), &ctx)
                })
            })
        }
        Protection::SafePm => {
            let policy = Arc::new(SafePmPolicy::create(pool).expect("safepm instrument"));
            run_policy(ops, &policy, protection, breaks, &|ctx| {
                make_oracle(faults, IDEMPOTENCE_STRIDE, move |rp, _| {
                    let p = SafePmPolicy::open(Arc::clone(&rp.pool))
                        .map_err(|e| format!("safepm reopen failed: {e}"))?;
                    kv_verify(Arc::new(p), &ctx)
                })
            })
        }
        Protection::Spp => {
            let policy =
                Arc::new(SppPolicy::new(pool, TagConfig::default()).expect("spp instrument"));
            run_policy(ops, &policy, protection, breaks, &|ctx| {
                make_oracle(faults, IDEMPOTENCE_STRIDE, move |rp, _| {
                    let p = SppPolicy::new(Arc::clone(&rp.pool), TagConfig::default())
                        .map_err(|e| format!("spp reopen failed: {e}"))?;
                    kv_verify(Arc::new(p), &ctx)
                })
            })
        }
    }
}

/// A live slot as the replayer tracks it: the published oid, the
/// policy's (possibly tagged) pointer, and the current size.
#[derive(Clone, Copy)]
struct Slot {
    oid: PmemOid,
    ptr: u64,
    size: u64,
}

#[allow(clippy::too_many_lines)]
fn run_policy<P: MemoryPolicy>(
    ops: &[Op],
    policy: &Arc<P>,
    protection: Protection,
    breaks: BreakSpec,
    mk_crash: CrashFactory<'_>,
) -> Result<ReplayOutcome, Divergence> {
    let label = protection.label();
    let pm = Arc::clone(policy.pool().pm());
    let oid_size = policy.oid_kind().on_media_size();

    // Per-trace fixtures: the slot directory and the KV store. These are
    // legal, identical ops in every replay, so failures here are harness
    // bugs, not divergences.
    let dir = policy
        .zalloc(NSLOTS as u64 * oid_size)
        .expect("slot directory alloc");
    let dir_ptr = policy.direct(dir);
    let kv = KvStore::create(Arc::clone(policy), NBUCKETS).expect("kv create");
    let kv_meta = kv.meta();

    let mut model = Model::new();
    let mut slots: Vec<Option<Slot>> = vec![None; NSLOTS];
    let mut typed: Vec<Option<TypedOid<u64>>> = vec![None; NTYPED];
    let mut out = ReplayOutcome::default();

    for (i, op) in ops.iter().enumerate() {
        let pred = model.apply(op);
        if matches!(pred, Predicted::Skip) {
            continue;
        }
        out.ops += 1;
        let cell_ptr = |slot: usize| policy.gep(dir_ptr, (slot as u64 * oid_size) as i64);
        match *op {
            Op::Alloc {
                slot,
                size,
                zero,
                seed,
            } => {
                let res = if zero {
                    policy.zalloc_into_ptr(cell_ptr(slot), size)
                } else {
                    policy.alloc_into_ptr(cell_ptr(slot), size)
                };
                let oid =
                    res.map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
                // Round-trip the published oid through the policy's
                // on-media encoding. Only the locator is durable under
                // every encoding (the 16-byte PMDK oid drops the size;
                // the SPP encoding keeps it for the tag).
                let back = policy.load_oid(cell_ptr(slot)).map_err(|e| {
                    diverge(
                        &pm,
                        label,
                        i,
                        format!("oid readback failed for {op:?}: {e}"),
                    )
                })?;
                if back.off != oid.off || back.pool_uuid != oid.pool_uuid {
                    return Err(diverge(
                        &pm,
                        label,
                        i,
                        format!("oid round-trip mismatch for {op:?}: {oid:?} vs {back:?}"),
                    ));
                }
                let ptr = policy.direct(oid);
                if !zero {
                    policy
                        .store(ptr, &pattern_bytes(seed, size as usize))
                        .map_err(|e| {
                            diverge(&pm, label, i, format!("fill after {op:?} failed: {e}"))
                        })?;
                }
                slots[slot] = Some(Slot { oid, ptr, size });
            }
            Op::Free { slot } => {
                let s = slots[slot].take().expect("model said live");
                policy
                    .free_from_ptr(cell_ptr(slot), s.oid)
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
            }
            Op::Realloc {
                slot,
                new_size,
                seed,
            } => {
                let s = slots[slot].expect("model said live");
                let noid = policy
                    .realloc_from_ptr(cell_ptr(slot), s.oid, new_size)
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
                let ptr = policy.direct(noid);
                if new_size > s.size {
                    // The preserved prefix is min(old, new); the grown
                    // tail is allocator garbage until we overwrite it.
                    policy
                        .store(
                            policy.gep(ptr, s.size as i64),
                            &pattern_bytes(seed, (new_size - s.size) as usize),
                        )
                        .map_err(|e| {
                            diverge(&pm, label, i, format!("tail fill after {op:?} failed: {e}"))
                        })?;
                }
                slots[slot] = Some(Slot {
                    oid: noid,
                    ptr,
                    size: new_size,
                });
            }
            Op::WriteAt {
                slot,
                at,
                len,
                seed,
            } => {
                let s = slots[slot].expect("model said live");
                policy
                    .store(
                        policy.gep(s.ptr, at as i64),
                        &pattern_bytes(seed, len as usize),
                    )
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
            }
            Op::ReadBack { slot } => {
                let Predicted::Bytes(want) = pred else {
                    unreachable!()
                };
                let s = slots[slot].expect("model said live");
                let mut buf = vec![0u8; s.size as usize];
                policy
                    .load(s.ptr, &mut buf)
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
                if buf != want {
                    let first = buf
                        .iter()
                        .zip(&want)
                        .position(|(a, b)| a != b)
                        .unwrap_or(buf.len());
                    return Err(diverge(
                        &pm,
                        label,
                        i,
                        format!("{op:?}: contents diverge from model at byte {first}"),
                    ));
                }
            }
            Op::Memmove {
                slot,
                src,
                dst,
                len,
            } => {
                let s = slots[slot].expect("model said live");
                policy
                    .memmove(
                        policy.gep(s.ptr, dst as i64),
                        policy.gep(s.ptr, src as i64),
                        len,
                    )
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
            }
            Op::TxUpdate {
                slot,
                at,
                len,
                seed,
                abort,
            } => {
                let s = slots[slot].expect("model said live");
                let data = pattern_bytes(seed, len as usize);
                let ptr = policy.gep(s.ptr, at as i64);
                let res: Result<(), SppError> = policy.pool().tx(|tx| {
                    policy.tx_write(tx, ptr, &data)?;
                    if abort {
                        Err(SppError::Pmdk(tx.abort("oracle abort")))
                    } else {
                        Ok(())
                    }
                });
                match (abort, res) {
                    (false, Ok(())) => {}
                    (true, Err(SppError::Pmdk(PmdkError::TxAborted(_)))) => {}
                    (_, r) => {
                        return Err(diverge(
                            &pm,
                            label,
                            i,
                            format!("{op:?}: unexpected transaction outcome {r:?}"),
                        ))
                    }
                }
            }
            Op::TypedPut { cell, value } => match typed[cell] {
                None => {
                    typed[cell] = Some(TypedOid::new(policy.as_ref(), &value).map_err(|e| {
                        diverge(&pm, label, i, format!("legal {op:?} failed: {e}"))
                    })?);
                }
                Some(t) => t
                    .write(policy.as_ref(), &value)
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?,
            },
            Op::TypedGet { cell } => {
                let Predicted::Value(want) = pred else {
                    unreachable!()
                };
                let got = typed[cell]
                    .expect("model said live")
                    .read(policy.as_ref())
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
                if got != want {
                    return Err(diverge(
                        &pm,
                        label,
                        i,
                        format!("{op:?}: read {got:#x}, model predicts {want:#x}"),
                    ));
                }
            }
            Op::TypedDel { cell } => {
                typed[cell]
                    .take()
                    .expect("model said live")
                    .delete(policy.as_ref())
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
            }
            Op::KvPut { key, len, seed } => {
                kv.put(&key_bytes(key), &pattern_bytes(seed, len as usize))
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
            }
            Op::KvGet { key } => {
                let Predicted::Kv(want) = pred else {
                    unreachable!()
                };
                let mut buf = Vec::new();
                let hit = kv
                    .get(&key_bytes(key), &mut buf)
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
                let ok = match &want {
                    Some(v) => hit && buf == *v,
                    None => !hit,
                };
                if !ok {
                    return Err(diverge(
                        &pm,
                        label,
                        i,
                        format!(
                            "{op:?}: hit={hit}, model predicts {}",
                            if want.is_some() { "hit" } else { "miss" }
                        ),
                    ));
                }
            }
            Op::KvDel { key } => {
                let Predicted::Kv(want) = pred else {
                    unreachable!()
                };
                let removed = kv
                    .remove(&key_bytes(key))
                    .map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
                if removed != want.is_some() {
                    return Err(diverge(
                        &pm,
                        label,
                        i,
                        format!("{op:?}: removed={removed}, model disagrees"),
                    ));
                }
            }
            Op::ProbeInBounds { slot } => {
                out.probes += 1;
                let Predicted::Bytes(want) = pred else {
                    unreachable!()
                };
                let s = slots[slot].expect("model said live");
                match probe_load(policy.as_ref(), policy.gep(s.ptr, (s.size - 1) as i64)) {
                    Observed::Hit(b) if b == want[0] => {}
                    obs => {
                        return Err(diverge(
                            &pm,
                            label,
                            i,
                            format!("{op:?}: expected Hit({:#04x}), observed {obs:?}", want[0]),
                        ))
                    }
                }
            }
            Op::ProbeJustPast { slot } => {
                out.probes += 1;
                let s = slots[slot].expect("model said live");
                let base_off = policy
                    .resolve(s.ptr, 1)
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: anchor resolve: {e}")))?;
                let obs = probe_load(policy.as_ref(), policy.gep(s.ptr, s.size as i64));
                // Chunk-granular indeterminacy: when the one-past byte is
                // the first byte of the next 4 KiB chunk, memcheck's
                // verdict depends on whether any other live block shares
                // that chunk — skip conformance for that rare alignment.
                let indeterminate = matches!(protection, Protection::Memcheck)
                    && (base_off + s.size).is_multiple_of(CHUNK);
                if !indeterminate {
                    conform(
                        &obs,
                        expected(Family::AdjacentSameChunk, protection, breaks),
                        protection,
                        Family::AdjacentSameChunk,
                    )
                    .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
                }
            }
            Op::ProbeFarLive { from, to } => {
                out.probes += 1;
                let a = slots[from].expect("model said live");
                let b = slots[to].expect("model said live");
                let off_a = policy
                    .resolve(a.ptr, 1)
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: anchor resolve: {e}")))?;
                let off_b = policy
                    .resolve(b.ptr, 1)
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: victim resolve: {e}")))?;
                let delta = off_b as i64 - off_a as i64;
                let obs = probe_load(policy.as_ref(), policy.gep(a.ptr, delta));
                // A backward jump is an *underflow*: the distance tag
                // only counts toward the upper bound, so SPP misses it
                // like everyone else (§IV-G limitation).
                let want = if matches!(protection, Protection::Spp) && delta < 0 {
                    Cell::Hit
                } else {
                    expected(Family::FarJumpLive, protection, breaks)
                };
                conform(&obs, want, protection, Family::FarJumpLive)
                    .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
                if let (Cell::Hit, Observed::Hit(got)) = (want, &obs) {
                    // A silent hit must read the victim's real first byte
                    // — the model knows what it holds.
                    let victim = model.slots[to].as_ref().expect("model said live").bytes[0];
                    if *got != victim {
                        return Err(diverge(
                            &pm,
                            label,
                            i,
                            format!("{op:?}: hit read {got:#04x}, victim holds {victim:#04x}"),
                        ));
                    }
                }
            }
            Op::ProbeWilderness { slot } => {
                out.probes += 1;
                let s = slots[slot].expect("model said live");
                let off = policy
                    .resolve(s.ptr, 1)
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: anchor resolve: {e}")))?;
                let target = POOL_BYTES - WILDERNESS_BACKOFF + 8;
                let obs = probe_load(
                    policy.as_ref(),
                    policy.gep(s.ptr, target as i64 - off as i64),
                );
                conform(
                    &obs,
                    expected(Family::WildernessSmash, protection, breaks),
                    protection,
                    Family::WildernessSmash,
                )
                .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
            }
            Op::ProbeBeyond { slot } => {
                out.probes += 1;
                let s = slots[slot].expect("model said live");
                let off = policy
                    .resolve(s.ptr, 1)
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: anchor resolve: {e}")))?;
                let target = POOL_BYTES + 4096;
                let obs = probe_load(
                    policy.as_ref(),
                    policy.gep(s.ptr, target as i64 - off as i64),
                );
                conform(
                    &obs,
                    expected(Family::BeyondMapping, protection, breaks),
                    protection,
                    Family::BeyondMapping,
                )
                .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
            }
            Op::ProbeUafStale { slot } => {
                out.probes += 1;
                let Predicted::Bytes(want) = pred else {
                    unreachable!()
                };
                let s = slots[slot].take().expect("model said live");
                policy.free_from_ptr(cell_ptr(slot), s.oid).map_err(|e| {
                    diverge(&pm, label, i, format!("{op:?}: legal free failed: {e}"))
                })?;
                let obs = probe_load(policy.as_ref(), s.ptr);
                // Chunk-granular indeterminacy: whether the freed block's
                // 4 KiB chunk actually dies depends on co-occupancy with
                // the live fixtures (slot directory, KV nodes) — skip
                // memcheck conformance, like the aligned just-past case.
                if !matches!(protection, Protection::Memcheck) {
                    let cell = expected(Family::UafRead, protection, breaks);
                    conform(&obs, cell, protection, Family::UafRead)
                        .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
                    if let (Cell::Hit, Observed::Hit(got)) = (cell, &obs) {
                        // A silent stale read must return the dead
                        // object's real first byte — frees are
                        // header-only, so the model still knows it.
                        if *got != want[0] {
                            return Err(diverge(
                                &pm,
                                label,
                                i,
                                format!(
                                    "{op:?}: stale read {got:#04x}, freed object held {:#04x}",
                                    want[0]
                                ),
                            ));
                        }
                    }
                }
            }
            Op::ProbeDoubleFree { slot } => {
                out.probes += 1;
                let s = slots[slot].take().expect("model said live");
                policy.free_from_ptr(cell_ptr(slot), s.oid).map_err(|e| {
                    diverge(&pm, label, i, format!("{op:?}: legal free failed: {e}"))
                })?;
                let obs = probe_free(policy.as_ref(), s.oid);
                conform(
                    &obs,
                    expected(Family::DoubleFree, protection, breaks),
                    protection,
                    Family::DoubleFree,
                )
                .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
            }
            Op::ProbeAbaStale { slot, seed } => {
                out.probes += 1;
                let Predicted::Bytes(want) = pred else {
                    unreachable!()
                };
                let s = slots[slot].take().expect("model said live");
                policy.free_from_ptr(cell_ptr(slot), s.oid).map_err(|e| {
                    diverge(&pm, label, i, format!("{op:?}: legal free failed: {e}"))
                })?;
                let noid = policy
                    .alloc_into_ptr(cell_ptr(slot), s.size)
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: realloc failed: {e}")))?;
                let nptr = policy.direct(noid);
                policy
                    .store(nptr, &pattern_bytes(seed, s.size as usize))
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: fill failed: {e}")))?;
                slots[slot] = Some(Slot {
                    oid: noid,
                    ptr: nptr,
                    size: s.size,
                });
                // LIFO reuse hands the same-class allocation the block
                // just freed. Near generation saturation the dead block
                // is quarantined instead and the new object lands
                // elsewhere — the stale pointer then dangles at a dead
                // block whose fate is co-occupancy dependent, so the
                // probe is only classified when reuse actually happened.
                if noid.off == s.oid.off {
                    let obs = probe_load(policy.as_ref(), s.ptr);
                    let cell = expected(Family::AbaReuse, protection, breaks);
                    conform(&obs, cell, protection, Family::AbaReuse)
                        .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
                    if let (Cell::Hit, Observed::Hit(got)) = (cell, &obs) {
                        // A silent hit reads the *new* owner's first byte.
                        if *got != want[0] {
                            return Err(diverge(
                                &pm,
                                label,
                                i,
                                format!(
                                    "{op:?}: stale read {got:#04x}, new owner holds {:#04x}",
                                    want[0]
                                ),
                            ));
                        }
                    }
                }
            }
            Op::ProbeReallocStale { slot } => {
                out.probes += 1;
                let Predicted::Bytes(want) = pred else {
                    unreachable!()
                };
                let s = slots[slot].take().expect("model said live");
                let noid = policy
                    .realloc_from_ptr(cell_ptr(slot), s.oid, s.size)
                    .map_err(|e| diverge(&pm, label, i, format!("{op:?}: realloc failed: {e}")))?;
                slots[slot] = Some(Slot {
                    oid: noid,
                    ptr: policy.direct(noid),
                    size: s.size,
                });
                // A same-size realloc resizes in place under the shared
                // allocator (still bumping the generation); SafePM always
                // moves (that is *how* it catches this family). When a
                // non-SafePM variant moved anyway (generation
                // saturation), memcheck's verdict depends on whether the
                // old chunk died — skip that rare case.
                let moved = noid.off != s.oid.off;
                if !(matches!(protection, Protection::Memcheck) && moved) {
                    let obs = probe_load(policy.as_ref(), s.ptr);
                    let cell = expected(Family::ReallocStale, protection, breaks);
                    conform(&obs, cell, protection, Family::ReallocStale)
                        .map_err(|msg| diverge(&pm, label, i, format!("{op:?}: {msg}")))?;
                    if let (Cell::Hit, Observed::Hit(got)) = (cell, &obs) {
                        // In place and header-only: the stale pointer
                        // still reads the preserved first byte.
                        if *got != want[0] {
                            return Err(diverge(
                                &pm,
                                label,
                                i,
                                format!(
                                    "{op:?}: stale read {got:#04x}, object holds {:#04x}",
                                    want[0]
                                ),
                            ));
                        }
                    }
                }
            }
            Op::CrashKvPut {
                key,
                len,
                seed,
                boundary,
            } => {
                let Predicted::Crash(expect) = pred else {
                    unreachable!()
                };
                let oracle = mk_crash(CrashCtx {
                    meta: kv_meta,
                    expect,
                });
                let mut res = Ok(());
                let crashed = explore(
                    &pm,
                    Plan::drop_all().at(boundary),
                    || res = kv.put(&key_bytes(key), &pattern_bytes(seed, len as usize)),
                    move |img: &CrashImage| oracle(img),
                );
                res.map_err(|e| diverge(&pm, label, i, format!("legal {op:?} failed: {e}")))?;
                let explored = crashed.map_err(|e| {
                    diverge(
                        &pm,
                        label,
                        i,
                        format!("{op:?}: crash oracle: {}", e.message),
                    )
                })?;
                out.crash_checks += explored.states;
            }
        }
    }
    Ok(out)
}
