//! A pool's resident memory on huge pages: the heap the allocator has handed
//! out, rounded up to whole 2 MiB pages, plus the few small pages its lane
//! logs and generation index touch — never a huge page for either of those.
//!
//! This binary holds this one test, so no other test allocates in the
//! process while it reads `VmRSS`. It asserts an upper bound only: a host
//! with transparent huge pages off, or with no free huge page, stays on
//! small pages and passes with room to spare.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use spp_pm::{PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};

const MIB: u64 = 1 << 20;
const HUGE_PAGE: u64 = 2 * MIB;

/// The `field` line of a `/proc`-style `key: value kB` file, in bytes.
fn kb_field(file: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines().find_map(|line| {
        let kb = line.strip_prefix(field)?.trim().strip_suffix("kB")?;
        kb.trim().parse::<u64>().ok().map(|kb| kb * 1024)
    })
}

fn vm_rss() -> u64 {
    kb_field("/proc/self/status", "VmRSS:").expect("VmRSS in /proc/self/status")
}

#[test]
fn heap_residency_grows_in_whole_huge_pages_only() {
    let lanes = 16;
    // One allocating thread per lane, each taking a 1.25 MiB block: every
    // lane log is touched, as a served pool's are, and the heap's high
    // water lands just past 20 MiB, a little over a huge-page multiple.
    let block = 5 * MIB / 4;

    let before = vm_rss();
    let pm = Arc::new(PmPool::new(PoolConfig::new(64 * MIB)));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(lanes)).unwrap());
    for _ in 0..lanes {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.zalloc(block).unwrap())
            .join()
            .unwrap();
    }
    let grown = vm_rss().saturating_sub(before);

    let high_water = pool.stats().high_water;
    let budget = high_water.next_multiple_of(HUGE_PAGE) + MIB;
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .unwrap_or_else(|_| "unknown\n".into());
    let huge = kb_field("/proc/self/smaps_rollup", "AnonHugePages:");
    println!(
        "heap_off {} KiB, high water {} KiB, VmRSS grew {} KiB (budget {} KiB), \
         AnonHugePages {:?} KiB, THP {}",
        pool.heap_off() / 1024,
        high_water / 1024,
        grown / 1024,
        budget / 1024,
        huge.map(|b| b / 1024),
        thp.trim()
    );
    assert!(high_water >= 20 * MIB, "high water {high_water}");
    assert!(
        grown <= budget,
        "VmRSS grew {grown} B for a heap high water of {high_water} B (budget {budget} B)"
    );
}
