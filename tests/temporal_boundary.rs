//! SPP+T temporal-safety probes at exact generation boundaries, under
//! all four policies: free → stale deref (use-after-free), double free
//! (atomic, and twice inside one transaction), free → same-class alloc →
//! stale deref (ABA slot reuse), and realloc-stale in both directions.
//!
//! The realloc probes grow 33 → 48 and shrink 48 → 33: both sizes round
//! to the same 64-byte class, so the pmdk allocator resizes *in place*
//! — the stale pointer still aims at live, correctly-sized payload, and
//! only the generation bump (SPP+T) or an always-move policy (SafePM)
//! can tell the two lifetimes apart. Each scenario checks the observed
//! reaction against the guarantee-matrix cell for its family, including
//! the mechanism string (`generation-tag` for every SPP temporal
//! catch).

use std::sync::Arc;

use spp::core::{MemoryPolicy, PmdkPolicy, SppError, SppPolicy, TagConfig};
use spp::pm::{PmPool, PoolConfig};
use spp::pmdk::{ObjPool, PoolOpts};
use spp::ripe::{expected_cell, Cell, Family, MemcheckPolicy, Protection};
use spp::safepm::SafePmPolicy;

/// Fill byte of the original (soon-stale) object.
const OLD_FILL: u8 = 0xA5;
/// Fill byte of the object that re-occupies the slot in the ABA probe.
const NEW_FILL: u8 = 0x5A;

fn fresh_pool() -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
    Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap())
}

/// What a one-byte stale load (or illegal free) actually did.
#[derive(Debug)]
enum Observed {
    Hit(u8),
    Caught(&'static str),
    Fault,
    Rejected,
}

fn probe<P: MemoryPolicy>(policy: &P, ptr: u64) -> Observed {
    let mut b = [0u8; 1];
    match policy.load(ptr, &mut b) {
        Ok(()) => Observed::Hit(b[0]),
        Err(
            SppError::OverflowDetected { mechanism, .. }
            | SppError::TemporalViolation { mechanism, .. },
        ) => Observed::Caught(mechanism),
        Err(SppError::Fault { .. }) => Observed::Fault,
        Err(e) => panic!("stale probe raised unexpected error: {e}"),
    }
}

/// Check an observation against the matrix cell for `family`; a silent
/// hit must additionally read `hit_byte`.
fn conform(obs: &Observed, family: Family, protection: Protection, hit_byte: u8) {
    let want = expected_cell(family, protection);
    match (obs, want) {
        (Observed::Hit(b), Cell::Hit) => {
            assert_eq!(*b, hit_byte, "{protection:?}/{family:?}: wrong hit byte");
        }
        (Observed::Fault, Cell::Fault) | (Observed::Rejected, Cell::Rejected) => {}
        (Observed::Caught(m), Cell::Caught) => {
            assert_eq!(
                Some(*m),
                protection.mechanism_for(family),
                "{protection:?}/{family:?}: wrong mechanism"
            );
        }
        _ => panic!("{protection:?}/{family:?}: observed {obs:?}, matrix expects {want:?}"),
    }
}

/// Free, then load byte 0 through the dangling pointer.
fn uaf_stale_deref<P: MemoryPolicy>(policy: &P, protection: Protection) {
    let obj = policy.zalloc(64).unwrap();
    let ptr = policy.direct(obj);
    policy.store(ptr, &[OLD_FILL; 64]).unwrap();
    policy.free(obj).unwrap();
    // Frees are header-only (the free lists are volatile), so a silent
    // stale read still sees the dead object's fill.
    conform(&probe(policy, ptr), Family::UafRead, protection, OLD_FILL);
}

/// What an illegal free did.
fn free_outcome(r: Result<(), SppError>) -> Observed {
    match r {
        Ok(()) => Observed::Hit(0),
        Err(
            SppError::OverflowDetected { mechanism, .. }
            | SppError::TemporalViolation { mechanism, .. },
        ) => Observed::Caught(mechanism),
        Err(SppError::Fault { .. }) => Observed::Fault,
        Err(_) => Observed::Rejected,
    }
}

/// Free the same oid twice; the second free is the probe.
fn double_free<P: MemoryPolicy>(policy: &P, protection: Protection) {
    let obj = policy.zalloc(64).unwrap();
    policy.free(obj).unwrap();
    let obs = free_outcome(policy.free(obj));
    conform(&obs, Family::DoubleFree, protection, 0);
}

/// Free the same oid twice inside one transaction. The durable header
/// still says allocated until commit, so only the transaction's own
/// pending list can tell: the second `tx_free` must get the verdict of an
/// atomic double free, and the commit must retire the block exactly once.
fn double_free_in_tx<P: MemoryPolicy>(policy: &P, protection: Protection) {
    let pool = policy.pool();
    let obj = policy.zalloc(64).unwrap();
    let live = pool.stats().live_objects;
    let mut h = pool.tx_begin().unwrap();
    policy.tx_free(h.tx(), obj).unwrap();
    let obs = free_outcome(policy.tx_free(h.tx(), obj));
    conform(&obs, Family::DoubleFree, protection, 0);
    h.commit().unwrap();
    // The heap stays sound: one object gone, and the class's free list
    // holds the block once — two allocations get two blocks.
    assert_eq!(pool.stats().live_objects, live - 1, "{protection:?}");
    let (a, b) = (policy.zalloc(64).unwrap(), policy.zalloc(64).unwrap());
    assert_eq!(
        a.off, obj.off,
        "{protection:?}: LIFO reuse of the freed block"
    );
    assert_ne!(a.off, b.off, "{protection:?}: one block handed out twice");
    pool.walk_heap().unwrap();
}

/// Free, re-allocate the same size (LIFO reuse hands back the same
/// block), then load through the pre-free pointer.
fn aba_stale_deref<P: MemoryPolicy>(policy: &P, protection: Protection) {
    let first = policy.zalloc(96).unwrap();
    let stale = policy.direct(first);
    policy.free(first).unwrap();
    let victim = policy.zalloc(96).unwrap();
    assert_eq!(
        victim.off, first.off,
        "{protection:?}: LIFO reuse must hand back the freed block"
    );
    policy
        .store(policy.direct(victim), &[NEW_FILL; 96])
        .unwrap();
    // A silent hit lands in the *new* owner's bytes.
    conform(
        &probe(policy, stale),
        Family::AbaReuse,
        protection,
        NEW_FILL,
    );
}

/// Realloc within one size class (in place for every policy but SafePM,
/// which always moves), then load through the pre-realloc pointer.
fn realloc_stale_deref<P: MemoryPolicy>(policy: &P, protection: Protection, old: u64, new: u64) {
    // The oid must live in PM for realloc's atomic republish.
    let dir = policy.zalloc(policy.oid_kind().on_media_size()).unwrap();
    let dir_ptr = policy.direct(dir);
    let obj = policy.alloc_into_ptr(dir_ptr, old).unwrap();
    let stale = policy.direct(obj);
    policy.store(stale, &vec![OLD_FILL; old as usize]).unwrap();
    let noid = policy.realloc_from_ptr(dir_ptr, obj, new).unwrap();
    if !matches!(protection, Protection::SafePm) {
        assert_eq!(
            noid.off, obj.off,
            "{protection:?}: same-class realloc must stay in place"
        );
    }
    conform(
        &probe(policy, stale),
        Family::ReallocStale,
        protection,
        OLD_FILL,
    );
}

/// Every temporal boundary scenario under one policy, each on a fresh
/// pool so block offsets (and LIFO reuse) are deterministic.
fn check_policy<P: MemoryPolicy, F: Fn() -> P>(mk: F, protection: Protection) {
    uaf_stale_deref(&mk(), protection);
    double_free(&mk(), protection);
    double_free_in_tx(&mk(), protection);
    aba_stale_deref(&mk(), protection);
    // Grow and shrink within the 64-byte class: 33 and 48 both round up
    // to 64, so neither direction moves the block.
    realloc_stale_deref(&mk(), protection, 33, 48);
    realloc_stale_deref(&mk(), protection, 48, 33);
}

#[test]
fn temporal_boundary_pmdk() {
    check_policy(|| PmdkPolicy::new(fresh_pool()), Protection::Pmdk);
}

#[test]
fn temporal_boundary_memcheck() {
    check_policy(|| MemcheckPolicy::new(fresh_pool()), Protection::Memcheck);
}

#[test]
fn temporal_boundary_safepm() {
    check_policy(
        || SafePmPolicy::create(fresh_pool()).unwrap(),
        Protection::SafePm,
    );
}

#[test]
fn temporal_boundary_spp() {
    check_policy(
        || SppPolicy::new(fresh_pool(), TagConfig::default()).unwrap(),
        Protection::Spp,
    );
}
