//! Fig. 7: slowdown of SPP for PM management operations (atomic and
//! transactional alloc / free / realloc) across object sizes.
//!
//! Usage: `fig7_pm_ops [--ops 10000] [--quick] [--smoke]`
//!
//! `--smoke` is the CI mode: a seconds-long run whose numbers are not
//! meaningful, used to prove the harness end-to-end. Every run also writes
//! machine-readable results to `results/BENCH_fig7_pm_ops.json`.

use std::sync::Arc;

use spp_bench::{
    banner, fresh_pool, fresh_scaling_pool, pmdk_policy, slowdown, spp_policy, timed,
    validate_rows, validate_scaling, warm_pool, write_results, write_text_artifact, Args, Json,
    Opt,
};
use spp_core::{MemoryPolicy, TagConfig};
use spp_pm::contention;
use spp_pmdk::PmemOid;

const SIZES: [(u64, &str); 5] = [
    (64, "64 B"),
    (256, "256 B"),
    (1024, "1 KB"),
    (4096, "4 KB"),
    (16384, "16 KB"),
];

struct OpSet {
    atomic_alloc: f64,
    atomic_free: f64,
    atomic_realloc: f64,
    tx_alloc: f64,
    tx_free: f64,
    tx_realloc: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn run_ops<P: MemoryPolicy>(p: &Arc<P>, size: u64, ops: u64) -> OpSet {
    // Home object for oid destinations.
    let home = p.zalloc(64).expect("home");
    let hp = p.direct(home);

    let mut oids: Vec<PmemOid> = Vec::with_capacity(ops as usize);
    let (_, atomic_alloc) = timed(|| {
        for _ in 0..ops {
            oids.push(p.alloc_into_ptr(hp, size).expect("alloc"));
        }
    });
    let (_, atomic_realloc) = timed(|| {
        for oid in oids.iter_mut() {
            *oid = p.realloc_from_ptr(hp, *oid, size + 64).expect("realloc");
        }
    });
    let (_, atomic_free) = timed(|| {
        for oid in oids.drain(..) {
            p.free_from_ptr(hp, oid).expect("free");
        }
    });

    let pool = Arc::clone(p.pool());
    let mut tx_oids: Vec<PmemOid> = Vec::with_capacity(ops as usize);
    let (_, tx_alloc) = timed(|| {
        for _ in 0..ops {
            let oid = pool
                .tx(|tx| -> spp_core::Result<_> { p.tx_alloc(tx, size, false) })
                .expect("tx alloc");
            tx_oids.push(oid);
        }
    });
    // Transactional "realloc": alloc new + free old in one transaction.
    let (_, tx_realloc) = timed(|| {
        for oid in tx_oids.iter_mut() {
            *oid = pool
                .tx(|tx| -> spp_core::Result<_> {
                    let new = p.tx_alloc(tx, size + 64, false)?;
                    p.tx_free(tx, *oid)?;
                    Ok(new)
                })
                .expect("tx realloc");
        }
    });
    let (_, tx_free) = timed(|| {
        for oid in tx_oids.drain(..) {
            pool.tx(|tx| -> spp_core::Result<_> { p.tx_free(tx, oid) })
                .expect("tx free");
        }
    });

    OpSet {
        atomic_alloc,
        atomic_free,
        atomic_realloc,
        tx_alloc,
        tx_free,
        tx_realloc,
    }
}

/// One point of the thread-scaling row: `pairs` transactional alloc+free
/// pairs split across `threads` workers on a device-wait pool. Returns PM
/// management operations per second (two per pair). This storms the lane
/// subsystem: every transaction acquires a lane, so lane affinity and the
/// rotation fallback are what keep N threads from serializing.
fn scaling_storm(flush_wait_ns: u32, size: u64, pairs: u64, threads: u64) -> f64 {
    let pool = fresh_scaling_pool(64 << 20, 16, flush_wait_ns);
    let pm = Arc::clone(pool.pm());
    let p = pmdk_policy(pool);
    pm.set_latency_enabled(true);
    let per = pairs / threads;
    let (_, secs) = timed(|| {
        std::thread::scope(|s| {
            for _ in 0..threads {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    let pool = Arc::clone(p.pool());
                    for _ in 0..per {
                        let oid = pool
                            .tx(|tx| -> spp_core::Result<_> { p.tx_alloc(tx, size, false) })
                            .expect("tx alloc");
                        pool.tx(|tx| -> spp_core::Result<_> { p.tx_free(tx, oid) })
                            .expect("tx free");
                    }
                });
            }
        });
    });
    (per * threads * 2) as f64 / secs
}

fn main() {
    let args = Args::parse(&[
        Opt::flag("smoke"),
        Opt::flag("quick"),
        Opt::value::<u64>("ops"),
        Opt::value::<u64>("scaling-pairs"),
        Opt::value::<u32>("flush-wait-ns"),
    ]);
    let smoke = args.flag("smoke");
    let quick = args.flag("quick") || smoke;
    let reps = if smoke { 2 } else { 5 };
    let ops: u64 = args.get(
        "ops",
        if smoke {
            200
        } else if quick {
            1_000
        } else {
            10_000
        },
    );
    // Enough heap for ops live objects of the largest class plus the
    // non-coalescing residue of the realloc phase (old 16 KiB-class blocks
    // cannot serve the grown requests).
    let pool_bytes: u64 = (ops * 50 * 1024).max(if smoke { 64 << 20 } else { 256 << 20 });

    banner("Figure 7: PM management operations — SPP slowdown w.r.t. PMDK");
    println!("ops={ops} per operation type");
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "size", "at.alloc", "at.free", "at.realloc", "tx.alloc", "tx.free", "tx.realloc"
    );
    let mut rows = Vec::new();
    for (size, label) in SIZES {
        let pool_a = fresh_pool(pool_bytes, 4);
        warm_pool(&pool_a);
        let pool_b = fresh_pool(pool_bytes, 4);
        warm_pool(&pool_b);
        // Alternate the variants rep by rep (frequency drift and allocator
        // warm-up hit both symmetrically); per-field medians.
        let pmdk = pmdk_policy(pool_a);
        let spp_p = spp_policy(pool_b, TagConfig::default());
        let mut base_sets = Vec::with_capacity(reps);
        let mut spp_sets = Vec::with_capacity(reps);
        for _ in 0..reps {
            base_sets.push(run_ops(&pmdk, size, ops));
            spp_sets.push(run_ops(&spp_p, size, ops));
        }
        let pick = |sets: &[OpSet], f: fn(&OpSet) -> f64| median(sets.iter().map(f).collect());
        let base = OpSet {
            atomic_alloc: pick(&base_sets, |s| s.atomic_alloc),
            atomic_free: pick(&base_sets, |s| s.atomic_free),
            atomic_realloc: pick(&base_sets, |s| s.atomic_realloc),
            tx_alloc: pick(&base_sets, |s| s.tx_alloc),
            tx_free: pick(&base_sets, |s| s.tx_free),
            tx_realloc: pick(&base_sets, |s| s.tx_realloc),
        };
        let spp = OpSet {
            atomic_alloc: pick(&spp_sets, |s| s.atomic_alloc),
            atomic_free: pick(&spp_sets, |s| s.atomic_free),
            atomic_realloc: pick(&spp_sets, |s| s.atomic_realloc),
            tx_alloc: pick(&spp_sets, |s| s.tx_alloc),
            tx_free: pick(&spp_sets, |s| s.tx_free),
            tx_realloc: pick(&spp_sets, |s| s.tx_realloc),
        };
        let at_alloc = slowdown(spp.atomic_alloc, base.atomic_alloc);
        let at_free = slowdown(spp.atomic_free, base.atomic_free);
        let at_realloc = slowdown(spp.atomic_realloc, base.atomic_realloc);
        let txa = slowdown(spp.tx_alloc, base.tx_alloc);
        let txf = slowdown(spp.tx_free, base.tx_free);
        let txr = slowdown(spp.tx_realloc, base.tx_realloc);
        println!(
            "{label:<8} {at_alloc:>11.2}x {at_free:>11.2}x {at_realloc:>11.2}x \
             {txa:>11.2}x {txf:>11.2}x {txr:>11.2}x",
        );
        rows.push(Json::Obj(vec![
            ("size", Json::Int(size)),
            ("atomic_alloc_slowdown", Json::Num(at_alloc)),
            ("atomic_free_slowdown", Json::Num(at_free)),
            ("atomic_realloc_slowdown", Json::Num(at_realloc)),
            ("tx_alloc_slowdown", Json::Num(txa)),
            ("tx_free_slowdown", Json::Num(txf)),
            ("tx_realloc_slowdown", Json::Num(txr)),
        ]));
    }
    println!();
    println!("(paper: 1-8% slowdown for most operations, 7-17% for atomic free)");
    println!();

    // ---- Thread-scaling row: tx alloc/free storm on device-wait media ----
    let s_threads: Vec<u64> = vec![1, 2, 4, 8];
    let s_pairs: u64 = args.get("scaling-pairs", if smoke { 240 } else { 4_000 });
    let flush_wait_ns: u32 = args.get("flush-wait-ns", 15_000);
    println!(
        "Scaling: tx alloc/free storm, PMDK, device-wait media (flush wait {flush_wait_ns}ns)"
    );
    contention::reset_all();
    let mut s_ops_per_s = Vec::new();
    for &t in &s_threads {
        let tput = scaling_storm(flush_wait_ns, 256, s_pairs, t);
        println!("  threads={t:<3} {tput:>10.0} ops/s");
        s_ops_per_s.push(tput);
    }
    let speedup = s_ops_per_s[s_ops_per_s.len() - 1] / s_ops_per_s[0];
    println!("  8-thread speedup over 1-thread: {speedup:.2}x");
    let dump_path = write_text_artifact("contention_fig7.txt", &contention::dump());
    println!("contention dump written to {}", dump_path.display());
    let s_threads_usize: Vec<usize> = s_threads.iter().map(|&t| t as usize).collect();
    let scaling_validation = validate_scaling(&s_threads_usize, &s_ops_per_s, 0.10, 2.0);

    let validation = validate_rows(
        &rows,
        &[
            "size",
            "atomic_alloc_slowdown",
            "atomic_free_slowdown",
            "atomic_realloc_slowdown",
            "tx_alloc_slowdown",
            "tx_free_slowdown",
            "tx_realloc_slowdown",
        ],
    );
    let doc = Json::Obj(vec![
        ("bench", Json::Str("fig7_pm_ops".to_string())),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::Obj(vec![
                ("ops", Json::Int(ops)),
                ("reps", Json::Int(reps as u64)),
                ("pool_bytes", Json::Int(pool_bytes)),
            ]),
        ),
        ("results", Json::Arr(rows)),
        (
            "scaling",
            Json::Obj(vec![
                ("workload", Json::Str("tx_alloc_free_storm".to_string())),
                ("policy", Json::Str("pmdk".to_string())),
                ("flush_wait_ns", Json::Int(u64::from(flush_wait_ns))),
                ("pairs", Json::Int(s_pairs)),
                (
                    "threads",
                    Json::Arr(s_threads.iter().map(|&t| Json::Int(t)).collect()),
                ),
                (
                    "ops_per_s",
                    Json::Arr(s_ops_per_s.iter().map(|&v| Json::Num(v)).collect()),
                ),
                ("speedup_8_over_1", Json::Num(speedup)),
                ("monotone_ok", Json::Bool(scaling_validation.is_ok())),
            ]),
        ),
    ]);
    let path = write_results("fig7_pm_ops", &doc);
    println!("results written to {}", path.display());
    if let Err(e) = validation {
        eprintln!("fig7_pm_ops: self-validation FAILED: {e}");
        std::process::exit(1);
    }
    if let Err(e) = scaling_validation {
        eprintln!("fig7_pm_ops: scaling self-validation FAILED: {e}");
        std::process::exit(1);
    }
    println!("self-validation passed");
}
