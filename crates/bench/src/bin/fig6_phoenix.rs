//! Fig. 6: Phoenix suite slowdown vs native PMDK, 8 threads, 31 tag bits
//! (large PM input objects force the wide-tag configuration, §VI-B).
//!
//! Usage: `fig6_phoenix [--scale 4] [--threads 8] [--quick]`

use spp_bench::{
    banner, fresh_low_pool, pmdk_policy, safepm_policy, slowdown, spp_policy, timed, Args, Opt,
};
use spp_core::TagConfig;
use spp_phoenix::{run, App, PhoenixConfig};

fn main() {
    let args = Args::parse(&[
        Opt::flag("quick"),
        Opt::value::<u64>("scale"),
        Opt::value::<usize>("threads"),
        Opt::value::<u64>("pool-mb"),
    ]);
    let quick = args.flag("quick");
    let scale: u64 = args.get("scale", if quick { 1 } else { 4 });
    let threads: usize = args.get("threads", 8);
    let pool_bytes: u64 = args.get("pool-mb", if quick { 64u64 } else { 256 }) << 20;

    banner("Figure 6: Phoenix benchmark suite — slowdown w.r.t. native PMDK");
    println!("scale={scale} threads={threads} tag_bits=31");
    println!();

    let cfg = PhoenixConfig {
        threads,
        scale,
        seed: 0xF0E1,
    };
    for app in App::ALL {
        let (base_sum, base) = timed(|| {
            run(app, &pmdk_policy(fresh_low_pool(pool_bytes, 8)), &cfg).expect("pmdk run")
        });
        let (safepm_sum, safepm) = timed(|| {
            run(app, &safepm_policy(fresh_low_pool(pool_bytes, 8)), &cfg).expect("safepm run")
        });
        let (spp_sum, spp) = timed(|| {
            run(
                app,
                &spp_policy(fresh_low_pool(pool_bytes, 8), TagConfig::phoenix()),
                &cfg,
            )
            .expect("spp run")
        });
        assert_eq!(base_sum, spp_sum, "{}: checksum mismatch", app.label());
        assert_eq!(base_sum, safepm_sum, "{}: checksum mismatch", app.label());
        println!(
            "{:<18} PMDK {:>7.3}s   SafePM {:>5.2}x   SPP {:>5.2}x",
            app.label(),
            base,
            slowdown(safepm, base),
            slowdown(spp, base),
        );
    }
    println!();
    println!("(paper: SPP 2-23% except kmeans ~180%; SafePM 83-750%)");
}
