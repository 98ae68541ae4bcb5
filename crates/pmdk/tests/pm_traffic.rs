//! The PM traffic of the write path, pinned: every store (offset and
//! length), flush range, fence and transaction/heap mark that a fresh PUT,
//! a resident PUT, a DEL, an 8-PUT batch with repeated keys and an aborted
//! transaction issue on a `Mode::Tracked` pool, in order, against
//! `pm_traffic.golden` — captured before the write path lost its heap
//! allocations, PM re-reads and shared counters, so it proves none of that
//! moved a single store, flush or fence.
//!
//! The golden changes only with a reviewed diff; each diff, with offsets
//! masked, is kept under `results/` as `pm_traffic.masked.diff`. It has
//! been regenerated twice:
//!
//! * with the 64-byte SPP node, whose value oid's size word is the value
//!   length: the node's `tx_alloc` went 144 → 80 bytes, its `vlen` store
//!   went, each overwrite lost its `vlen` snapshot (a `tx_add` of 8 bytes
//!   with its undo-entry stores, flushes and fences), and flush widths
//!   moved with line alignment; fences went 186 → 178;
//! * with same-length overwrites written in place: a resident PUT and the
//!   batch's repeated keys lost the new value's `tx_alloc`, the old one's
//!   free-on-commit entry and redo free, and the value reference's
//!   `tx_add`, and gained one `tx_add` of the 100 value bytes. A resident
//!   PUT went 19 → 8 fences, 20 → 8 flushes and 29 → 11 stores (364 →
//!   272 bytes), the batch 103 → 48 fences and 119 → 59 flushes; the
//!   fresh PUT, the DEL and the aborted transaction did not move.
//!
//! On a mismatch the actual trace is written next to the temp dir's
//! `pm_traffic.actual` for diffing.

use std::fmt::Write as _;
use std::sync::Arc;

use spp_core::{MemoryPolicy, SppPolicy, TagConfig};
use spp_kvstore::{BatchOp, KvStore, KEY_SIZE};
use spp_pm::{Mode, PmEvent, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PmdkError, PoolOpts};

fn key(i: u64) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}

/// The traffic `op` issues on a fresh one-lane tracked store holding keys
/// 1..=4 (so every run sees the same layout), one line per event.
fn trace(op: impl FnOnce(&KvStore<SppPolicy>)) -> String {
    let pm = Arc::new(PmPool::new(PoolConfig::new(4 << 20).mode(Mode::Tracked)));
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::new().lanes(1)).unwrap());
    let policy = Arc::new(SppPolicy::new(pool, TagConfig::default()).unwrap());
    let kv = KvStore::create(policy, 16).unwrap();
    for i in 1..=4 {
        kv.put(&key(i), &[i as u8; 100]).unwrap();
    }
    pm.reset_tracking();
    op(&kv);
    let mut out = String::new();
    for e in pm.event_log().unwrap().events() {
        match e {
            PmEvent::Store { off, new, .. } => writeln!(out, "store {off:#x} {}", new.len()),
            PmEvent::Flush { off, len, .. } => writeln!(out, "flush {off:#x} {len}"),
            PmEvent::Fence { .. } => writeln!(out, "fence"),
            PmEvent::Mark { label, .. }
                if label.starts_with("tx_") || label.starts_with("heap_hdr") =>
            {
                writeln!(out, "mark {label}")
            }
            PmEvent::Mark { .. } => Ok(()),
        }
        .unwrap();
    }
    out
}

fn all_traces() -> String {
    let value = [0xAB; 100];
    let mut out = String::new();
    let mut section = |name: &str, op: &dyn Fn(&KvStore<SppPolicy>)| {
        writeln!(out, "== {name}").unwrap();
        out.push_str(&trace(op));
    };
    section("fresh put", &|kv| kv.put(&key(9), &value).unwrap());
    section("resident put", &|kv| kv.put(&key(2), &value).unwrap());
    section("del", &|kv| assert!(kv.remove(&key(3)).unwrap()));
    section("batch of 8 puts, keys repeated", &|kv| {
        let keys = [1, 5, 1, 6, 2, 5, 7, 1].map(key);
        let ops: Vec<BatchOp<'_>> = keys
            .iter()
            .map(|k| BatchOp::Put {
                key: k,
                value: &value,
            })
            .collect();
        kv.apply_batch(&ops).unwrap();
    });
    section("aborted transaction", &|kv| {
        let pool = kv.policy().pool();
        let (obj, victim) = (pool.zalloc(64).unwrap(), pool.zalloc(32).unwrap());
        pool.pm().reset_tracking();
        let aborted = pool.tx(|tx| -> spp_pmdk::Result<()> {
            tx.write_u64(obj.off, 7)?;
            tx.write(obj.off + 16, &[1; 24])?;
            tx.write_u64(obj.off, 8)?;
            tx.alloc(100)?;
            tx.free(victim)?;
            Err(PmdkError::TxAborted("golden".into()))
        });
        assert!(aborted.is_err());
    });
    out
}

#[test]
fn write_path_traffic_matches_the_golden_trace() {
    let actual = all_traces();
    let golden = include_str!("pm_traffic.golden");
    if actual != golden {
        let path = std::env::temp_dir().join("pm_traffic.actual");
        std::fs::write(&path, &actual).unwrap();
        let diverges = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "PM traffic diverges from pm_traffic.golden at line {}; actual trace in {}",
            diverges + 1,
            path.display()
        );
    }
}
