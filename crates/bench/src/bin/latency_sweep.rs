//! §VI-B's latency claim: "compared to DRAM memory safety approaches, SPP
//! introduces lower relative overheads since the performance impact of tag
//! updating and cleaning operations in SPP is proportionally lower due to
//! the slower PM access."
//!
//! This sweep runs the same ctree workload against media of increasing
//! simulated latency and reports SPP's relative slowdown at each point —
//! it should shrink as the media slows.
//!
//! Usage: `latency_sweep [--n 20000] [--quick]`

use std::sync::Arc;

use spp_bench::{banner, pmdk_policy, slowdown, spp_policy, timed, uniform_keys, Args, Opt};
use spp_core::{MemoryPolicy, TagConfig};
use spp_indices::{CTree, Index};
use spp_pm::{LatencyModel, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};

fn pool_with_latency(lat: LatencyModel) -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(256 << 20).latency(lat).record_stats(false),
    ));
    Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(2)).expect("pool"))
}

fn run<P: MemoryPolicy>(policy: Arc<P>, keys: &[u64]) -> f64 {
    let idx = CTree::create(policy).expect("index");
    let (_, secs) = timed(|| {
        for &k in keys {
            idx.insert(k, k).expect("insert");
        }
        for &k in keys {
            idx.get(k).expect("get");
        }
    });
    secs
}

fn main() {
    let args = Args::parse(&[Opt::flag("quick"), Opt::value::<u64>("n")]);
    let quick = args.flag("quick");
    let n: u64 = args.get("n", if quick { 3_000 } else { 20_000 });
    let keys = uniform_keys(n, 0x1A7);

    banner("Latency sweep: SPP relative overhead vs media speed (§VI-B)");
    println!("ctree insert+get, n={n}\n");
    println!(
        "{:<26} {:>12} {:>10}",
        "media latency model", "PMDK (s)", "SPP"
    );
    let models: [(&str, LatencyModel); 3] = [
        ("DRAM-like (no injection)", LatencyModel::none()),
        ("Optane-like", LatencyModel::optane_like()),
        (
            "slow CXL-like (3x Optane)",
            LatencyModel {
                read_spins: 180,
                write_spins: 60,
                per_line_spins: 90,
                ..LatencyModel::none()
            },
        ),
    ];
    for (label, lat) in models {
        let base = run(pmdk_policy(pool_with_latency(lat)), &keys);
        let spp = run(
            spp_policy(pool_with_latency(lat), TagConfig::default()),
            &keys,
        );
        println!("{label:<26} {base:>12.3} {:>9.2}x", slowdown(spp, base));
    }
    println!();
    println!("(expectation: the SPP column trends toward 1.0x as media slows — the");
    println!(" constant tag arithmetic amortises against costlier accesses)");
}
