//! Table II: recovery time (ms) after a crash inside a transaction that
//! snapshotted N oids — PMDK's 16-byte oids vs SPP's 24-byte oids (larger
//! undo logs to restore).
//!
//! Usage: `table2_recovery [--max 100000] [--runs 10] [--quick]`

use std::sync::Arc;
use std::time::Instant;

use spp_bench::{banner, Args, Opt};
use spp_pm::{CrashSpec, Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, OidKind, PmemOid, PoolOpts};

/// Snapshot `n` oids of `kind` in one transaction, crash mid-transaction,
/// and measure recovery (pool open) time in milliseconds.
fn recovery_ms(n: u64, kind: OidKind, runs: u64) -> f64 {
    let oid_size = kind.on_media_size();
    let data_bytes = n * oid_size;
    // Undo entries: 24-byte header + 8-padded data each; generous headroom.
    let undo = n * (24 + oid_size.next_multiple_of(8) + 16) + 8192;
    let pool_bytes = (data_bytes * 4).max(8 << 20);
    let mut total_ms = 0.0;
    for _ in 0..runs {
        let pm = Arc::new(PmPool::new(
            PoolConfig::new(pool_bytes)
                .mode(Mode::Tracked)
                .record_stats(false),
        ));
        let pool = ObjPool::create(
            Arc::clone(&pm),
            PoolOpts::new().lanes(1).undo_capacity(undo),
        )
        .expect("pool");
        // One array object holding n serialized oids.
        let arr = pool.zalloc(data_bytes).expect("array");
        for i in 0..n {
            let oid = PmemOid::new(pool.uuid(), 64 + i, 8);
            pool.oid_write(arr.off + i * oid_size, oid, kind)
                .expect("seed oid");
        }
        pool.persist(arr.off, data_bytes as usize).expect("persist");
        pm.reset_tracking();
        // Snapshot every oid inside a transaction, then crash before commit.
        let img = std::cell::RefCell::new(None);
        let _ = pool.tx(|tx| -> spp_pmdk::Result<()> {
            for i in 0..n {
                tx.snapshot(arr.off + i * oid_size, oid_size)?;
            }
            *img.borrow_mut() = Some(pm.crash_image(CrashSpec::KeepAll));
            Err(spp_pmdk::PmdkError::TxAborted("crash point".into()))
        });
        let img = img.into_inner().expect("crash image");
        let pm2 = Arc::new(PmPool::from_image(
            img,
            PoolConfig::new(0).record_stats(false),
        ));
        let start = Instant::now();
        let reopened = ObjPool::open(pm2).expect("recovery");
        total_ms += start.elapsed().as_secs_f64() * 1e3;
        drop(reopened);
    }
    total_ms / runs as f64
}

fn main() {
    let args = Args::parse(&[
        Opt::flag("quick"),
        Opt::value::<u64>("max"),
        Opt::value::<u64>("runs"),
    ]);
    let quick = args.flag("quick");
    let max: u64 = args.get("max", if quick { 10_000 } else { 100_000 });
    let runs: u64 = args.get("runs", if quick { 3 } else { 10 });

    banner("Table II: recovery time (ms) vs snapshotted PMEMoids");
    println!(
        "{:<10} {:>12} {:>12} {:>9}",
        "oids", "PMDK (ms)", "SPP (ms)", "ratio"
    );
    let mut n = 100u64;
    while n <= max {
        let pmdk = recovery_ms(n, OidKind::Pmdk, runs);
        let spp = recovery_ms(n, OidKind::Spp, runs);
        println!("{n:<10} {pmdk:>12.2} {spp:>12.2} {:>8.3}x", spp / pmdk);
        n *= 10;
    }
    println!();
    println!("(paper: 17.62→119.77 ms PMDK vs 17.77→120.00 ms SPP for 100..1M oids —");
    println!(" SPP adds only the restoration of the extra size fields)");
}
