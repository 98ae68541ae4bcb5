//! Table III: PM space overhead of SPP (durable 24-byte oids) relative to
//! native PMDK for the persistent indices after an insert workload.
//!
//! Usage: `table3_space [--n 100000] [--rtree-n 20000] [--quick]`

use std::sync::Arc;

use spp_bench::{banner, fresh_pool, pmdk_policy, spp_policy, uniform_keys, Args, Opt};
use spp_core::{MemoryPolicy, TagConfig};
use spp_indices::{CTree, HashMapTx, Index, RTree, RbTree};

fn live_bytes<P: MemoryPolicy, I: Index<P>>(policy: Arc<P>, keys: &[u64]) -> u64 {
    let before = policy.pool().stats().live_bytes;
    let idx = I::create(Arc::clone(&policy)).expect("create");
    for &k in keys {
        idx.insert(k, k).expect("insert");
    }
    // Exercise the get path too (the paper reports insert and get columns;
    // lookups allocate nothing, so the footprint is identical).
    for &k in keys.iter().take(1000) {
        idx.get(k).expect("get");
    }
    policy.pool().stats().live_bytes - before
}

fn row(name: &str, n: u64, pool_bytes: u64, f: impl Fn(bool, &[u64]) -> u64) {
    let keys = uniform_keys(n, 0x7AB1E3);
    let pmdk = f(false, &keys);
    let spp = f(true, &keys);
    let overhead_mb = (spp.saturating_sub(pmdk)) as f64 / (1 << 20) as f64;
    let pct = (spp as f64 - pmdk as f64) / pmdk as f64 * 100.0;
    println!(
        "{name:<12} n={n:<8} PMDK {:>8.1} MB   SPP {:>8.1} MB   overhead {overhead_mb:>7.1} MB ({pct:>5.1}%)",
        pmdk as f64 / (1 << 20) as f64,
        spp as f64 / (1 << 20) as f64,
    );
    let _ = pool_bytes;
}

fn main() {
    let args = Args::parse(&[
        Opt::flag("quick"),
        Opt::value::<u64>("n"),
        Opt::value::<u64>("rtree-n"),
    ]);
    let quick = args.flag("quick");
    let n: u64 = args.get("n", if quick { 5_000 } else { 100_000 });
    let rtree_n: u64 = args.get("rtree-n", if quick { 2_000 } else { 20_000 });

    banner("Table III: SPP PM space overhead (durable size field in oids)");

    macro_rules! measure {
        ($index:ident, $pool:expr) => {
            |spp: bool, keys: &[u64]| -> u64 {
                let pool = fresh_pool($pool, 4);
                if spp {
                    live_bytes::<_, $index<_>>(spp_policy(pool, TagConfig::default()), keys)
                } else {
                    live_bytes::<_, $index<_>>(pmdk_policy(pool), keys)
                }
            }
        };
    }

    row("ctree", n, 512 << 20, measure!(CTree, 512 << 20));
    row("rbtree", n, 512 << 20, measure!(RbTree, 512 << 20));
    row("rtree", rtree_n, 1024 << 20, measure!(RTree, 1024 << 20));
    row("hashmap", n, 512 << 20, measure!(HashMapTx, 512 << 20));
    println!();
    println!("(paper: ctree 0%, rbtree 0%, rtree 39.7%, hashmap 0.43% — the overhead is");
    println!(" proportional to the number of oids a structure stores in PM)");
}
