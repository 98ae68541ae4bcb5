//! Fig. 4: throughput slowdown of SPP and SafePM vs native PMDK for the
//! persistent indices (ctree, rbtree, rtree, hashmap) under insert / get /
//! remove workloads with uniform 8-byte keys.
//!
//! Usage: `fig4_indices [--n 100000] [--rtree-n 20000] [--quick]`

use std::sync::Arc;

use spp_bench::{
    banner, fresh_pool, pmdk_policy, safepm_policy, slowdown, spp_policy, timed, uniform_keys,
    Args, Opt, Variant,
};
use spp_core::{MemoryPolicy, TagConfig};
use spp_indices::{CTree, HashMapTx, Index, RTree, RbTree};

struct OpTimes {
    insert: f64,
    get: f64,
    remove: f64,
}

fn run_index<P: MemoryPolicy, I: Index<P>>(policy: Arc<P>, keys: &[u64]) -> OpTimes {
    let idx = I::create(policy).expect("create index");
    let (_, insert) = timed(|| {
        for &k in keys {
            idx.insert(k, k ^ 0xFF).expect("insert");
        }
    });
    let (_, get) = timed(|| {
        let mut hits = 0u64;
        for &k in keys {
            if idx.get(k).expect("get").is_some() {
                hits += 1;
            }
        }
        assert!(hits as usize >= keys.len() * 9 / 10);
    });
    let (_, remove) = timed(|| {
        for &k in keys {
            idx.remove(k).expect("remove");
        }
    });
    OpTimes {
        insert,
        get,
        remove,
    }
}

fn bench_structure(
    name: &str,
    n: u64,
    pool_bytes: u64,
    runner: impl Fn(Variant, &[u64], u64) -> OpTimes,
) {
    let keys = uniform_keys(n, 0xF164);
    let base = runner(Variant::Pmdk, &keys, pool_bytes);
    let safepm = runner(Variant::SafePm, &keys, pool_bytes);
    let spp = runner(Variant::Spp, &keys, pool_bytes);
    for (op, b, s, p) in [
        ("insert", base.insert, safepm.insert, spp.insert),
        ("get", base.get, safepm.get, spp.get),
        ("remove", base.remove, safepm.remove, spp.remove),
    ] {
        println!(
            "{name:<10} {op:<7} n={n:<8} PMDK {:>10.0} ops/s   SafePM {:>5.2}x   SPP {:>5.2}x",
            n as f64 / b,
            slowdown(s, b),
            slowdown(p, b),
        );
    }
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

    banner("Figure 4: persistent indices — slowdown w.r.t. native PMDK");

    macro_rules! runner_for {
        ($index:ident, $pool:expr) => {
            |variant: Variant, keys: &[u64], pool_bytes: u64| -> OpTimes {
                let pool = fresh_pool(pool_bytes, 4);
                match variant {
                    Variant::Pmdk => run_index::<_, $index<_>>(pmdk_policy(pool), keys),
                    Variant::SafePm => run_index::<_, $index<_>>(safepm_policy(pool), keys),
                    Variant::Spp => {
                        run_index::<_, $index<_>>(spp_policy(pool, TagConfig::default()), keys)
                    }
                }
            }
        };
    }

    bench_structure("ctree", n, 512 << 20, runner_for!(CTree, x));
    bench_structure("rbtree", n, 512 << 20, runner_for!(RbTree, x));
    bench_structure("rtree", rtree_n, 1024 << 20, runner_for!(RTree, x));
    bench_structure("hashmap", n, 512 << 20, runner_for!(HashMapTx, x));
    println!();
    println!("(paper: SPP average slowdown 9.25% insert / 13.75% get / 10.5% remove;");
    println!(" SafePM 101% / 37.75% / 101.75%)");
}
