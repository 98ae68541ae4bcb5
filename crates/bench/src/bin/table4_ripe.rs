//! Table IV: RIPE buffer-overflow attack outcomes under each protection
//! mechanism.
//!
//! Usage: `table4_ripe [--quick]`

use std::sync::Arc;

use spp_bench::{banner, Args, Opt};
use spp_core::{PmdkPolicy, SppPolicy, TagConfig};
use spp_pm::{PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};
use spp_ripe::{evaluate_variant, generate_suite, MemcheckPolicy, TableRow};
use spp_safepm::SafePmPolicy;

fn fresh_pool() -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22)));
    Arc::new(ObjPool::create(pm, PoolOpts::small()).expect("pool"))
}

fn main() {
    // `--quick` is accepted like every harness's; the matrix has one size.
    Args::parse(&[Opt::flag("quick")]);
    banner("Table IV: RIPE attacks using different protection mechanisms");
    let suite = generate_suite();
    println!("attack forms: {}", suite.len());
    println!();

    let rows: Vec<TableRow> = vec![
        // The volatile-heap run uses the same simulated heap without
        // persistence semantics; like the paper, its counts match the PM
        // pool heap (the attacks do not depend on durability).
        evaluate_variant("Volatile heap", &suite, || {
            Ok(PmdkPolicy::new(fresh_pool()))
        })
        .expect("volatile"),
        evaluate_variant("PM pool heap", &suite, || Ok(PmdkPolicy::new(fresh_pool()))).expect("pm"),
        evaluate_variant("SafePM", &suite, || SafePmPolicy::create(fresh_pool())).expect("safepm"),
        evaluate_variant("SPP", &suite, || {
            SppPolicy::new(fresh_pool(), TagConfig::default())
        })
        .expect("spp"),
        evaluate_variant("memcheck", &suite, || Ok(MemcheckPolicy::new(fresh_pool())))
            .expect("memcheck"),
    ];

    println!(
        "{:<15} {:>11} {:>10}",
        "RIPE variant", "Successful", "Prevented"
    );
    for r in &rows {
        println!("{:<15} {:>11} {:>10}", r.variant, r.successful, r.prevented);
    }
    println!();
    println!("(paper: Volatile 83/140, PM pool 83/140, SafePM 6/217, SPP 4/219,");
    println!(" memcheck 20/203)");
}
