//! Fig. 5: pmemkv (cmap engine) throughput slowdown vs native PMDK across
//! four db_bench workload mixes and a thread sweep. 16-byte keys,
//! 1024-byte values, store preloaded before measurement.
//!
//! Usage: `fig5_pmemkv [--preload 100000] [--ops 100000] [--threads 1,2,4,8]
//!                     [--pool-mb 1536] [--quick] [--smoke]`
//!
//! `--smoke` is the CI mode: a seconds-long run whose numbers are not
//! meaningful, used to prove the harness end-to-end. Every run also writes
//! machine-readable results to `results/BENCH_fig5_pmemkv.json`.

use std::sync::Arc;

use spp_bench::{
    banner, fresh_pool, fresh_scaling_pool, pmdk_policy, safepm_policy, slowdown, spp_policy,
    validate_rows, validate_scaling, write_results, write_text_artifact, Args, Json, List, Opt,
    Variant,
};
use spp_core::{MemoryPolicy, TagConfig};
use spp_kvstore::workload::{preload, run_mix, Mix, WorkloadConfig};
use spp_kvstore::KvStore;
use spp_pm::contention;

fn throughput<P: MemoryPolicy>(
    policy: Arc<P>,
    cfg: &WorkloadConfig,
    mix: Mix,
    threads: u64,
) -> f64 {
    let kv = Arc::new(KvStore::create(policy, (cfg.preload_keys * 2).max(1024)).expect("kv"));
    preload(&kv, cfg).expect("preload");
    run_mix(&kv, cfg, mix, threads).expect("mix")
}

/// One point of the thread-scaling row: a fresh device-wait pool, preloaded
/// at DRAM speed, then the 50/50 mix timed with latency injection on.
fn scaling_throughput(pool_bytes: u64, flush_wait_ns: u32, cfg: &WorkloadConfig, t: u64) -> f64 {
    let pool = fresh_scaling_pool(pool_bytes, 16, flush_wait_ns);
    let pm = Arc::clone(pool.pm());
    let kv =
        Arc::new(KvStore::create(pmdk_policy(pool), (cfg.preload_keys * 2).max(1024)).expect("kv"));
    preload(&kv, cfg).expect("preload");
    pm.set_latency_enabled(true);
    run_mix(&kv, cfg, Mix::Update5050, t).expect("mix")
}

fn main() {
    let args = Args::parse(&[
        Opt::flag("smoke"),
        Opt::flag("quick"),
        Opt::value::<u64>("preload"),
        Opt::value::<u64>("ops"),
        Opt::value::<List<u64>>("threads"),
        Opt::value::<u64>("pool-mb"),
        Opt::value::<u64>("scaling-ops"),
        Opt::value::<u64>("scaling-preload"),
        Opt::value::<u32>("flush-wait-ns"),
    ]);
    let smoke = args.flag("smoke");
    let quick = args.flag("quick") || smoke;
    let preload_keys: u64 = args.get(
        "preload",
        if smoke {
            500
        } else if quick {
            2_000
        } else {
            100_000
        },
    );
    let ops: u64 = args.get(
        "ops",
        if smoke {
            1_000
        } else if quick {
            5_000
        } else {
            100_000
        },
    );
    let List(threads) = args.get(
        "threads",
        List(if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] }),
    );
    let pool_bytes: u64 = args.get(
        "pool-mb",
        if smoke {
            64u64
        } else if quick {
            256
        } else {
            1536
        },
    ) << 20;

    banner("Figure 5: pmemkv throughput — slowdown w.r.t. native PMDK");
    println!("preload={preload_keys} ops={ops} value=1024B (single-core host: thread");
    println!("counts time-slice; per-thread-count relative slowdowns remain meaningful)");
    println!();

    let cfg = WorkloadConfig {
        preload_keys,
        ops,
        value_size: 1024,
        seed: 7,
    };
    let mut rows = Vec::new();
    for mix in Mix::all() {
        println!("{}", mix.label());
        for &t in &threads {
            let base =
                ops as f64 / throughput(pmdk_policy(fresh_pool(pool_bytes, 16)), &cfg, mix, t);
            let safepm =
                ops as f64 / throughput(safepm_policy(fresh_pool(pool_bytes, 16)), &cfg, mix, t);
            let spp = ops as f64
                / throughput(
                    spp_policy(fresh_pool(pool_bytes, 16), TagConfig::default()),
                    &cfg,
                    mix,
                    t,
                );
            let pmdk_ops = ops as f64 / base;
            let safepm_x = slowdown(safepm, base);
            let spp_x = slowdown(spp, base);
            println!(
                "  threads={t:<3} PMDK {pmdk_ops:>10.0} ops/s   SafePM {safepm_x:>5.2}x   SPP {spp_x:>5.2}x",
            );
            rows.push(Json::Obj(vec![
                ("mix", Json::Str(mix.label().to_string())),
                ("threads", Json::Int(t)),
                ("pmdk_ops_per_s", Json::Num(pmdk_ops)),
                ("safepm_slowdown", Json::Num(safepm_x)),
                ("spp_slowdown", Json::Num(spp_x)),
            ]));
        }
        let _ = Variant::ALL; // figure order documented in the lib
    }
    println!();
    println!("(paper: SPP average 18.3% slowdown across mixes; SafePM 84.4%)");
    println!();

    // ---- Thread-scaling row: 50/50 mix, PMDK policy, device-wait media ----
    //
    // The mix rows above run without latency injection, so on a single-core
    // host their thread counts only time-slice. This row runs on a device
    // whose fences cost overlappable wall-clock time to drain the flushes
    // before them (`--flush-wait-ns` per draining fence): N threads overlap
    // their device waits exactly as N cores overlap stalls on real PM, so
    // throughput must climb with the thread count until the workload turns
    // CPU-bound — unless a lock is held across the device path, which is
    // precisely what the validation below would catch.
    let s_threads: Vec<u64> = vec![1, 2, 4, 8];
    let s_ops: u64 = args.get("scaling-ops", if smoke { 1_200 } else { 16_000 });
    let s_preload: u64 = args.get("scaling-preload", if smoke { 200 } else { 2_000 });
    let flush_wait_ns: u32 = args.get("flush-wait-ns", 15_000);
    println!("Scaling: 50/50 mix, PMDK, device-wait media (flush wait {flush_wait_ns}ns)");
    let s_cfg = WorkloadConfig {
        preload_keys: s_preload,
        ops: s_ops,
        value_size: 1024,
        seed: 11,
    };
    contention::reset_all();
    let mut s_ops_per_s = Vec::new();
    for &t in &s_threads {
        let tput = scaling_throughput(pool_bytes, flush_wait_ns, &s_cfg, t);
        println!("  threads={t:<3} {tput:>10.0} ops/s");
        s_ops_per_s.push(tput);
    }
    let speedup = s_ops_per_s[s_ops_per_s.len() - 1] / s_ops_per_s[0];
    println!("  8-thread speedup over 1-thread: {speedup:.2}x");
    let dump = contention::dump();
    let dump_path = write_text_artifact("contention_fig5.txt", &dump);
    println!("top contended locks during the sweep:");
    for snap in contention::top_contended(3) {
        println!(
            "  {:<16} {:>8} acq  {:>6.2}% contended  {:>8.2}ms waited",
            snap.name,
            snap.acquisitions,
            snap.contended_fraction() * 100.0,
            snap.wait_ns as f64 / 1e6,
        );
    }
    println!("contention dump written to {}", dump_path.display());
    let s_threads_usize: Vec<usize> = s_threads.iter().map(|&t| t as usize).collect();
    let scaling_validation = validate_scaling(&s_threads_usize, &s_ops_per_s, 0.10, 2.0);

    let validation = validate_rows(
        &rows,
        &["pmdk_ops_per_s", "safepm_slowdown", "spp_slowdown"],
    );
    let doc = Json::Obj(vec![
        ("bench", Json::Str("fig5_pmemkv".to_string())),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::Obj(vec![
                ("preload", Json::Int(preload_keys)),
                ("ops", Json::Int(ops)),
                ("value_size", Json::Int(1024)),
                ("pool_bytes", Json::Int(pool_bytes)),
                (
                    "threads",
                    Json::Arr(threads.iter().map(|&t| Json::Int(t)).collect()),
                ),
            ]),
        ),
        ("results", Json::Arr(rows)),
        (
            "scaling",
            Json::Obj(vec![
                ("mix", Json::Str(Mix::Update5050.label().to_string())),
                ("policy", Json::Str("pmdk".to_string())),
                ("flush_wait_ns", Json::Int(u64::from(flush_wait_ns))),
                ("ops", Json::Int(s_ops)),
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
    let path = write_results("fig5_pmemkv", &doc);
    println!("results written to {}", path.display());
    if let Err(e) = validation {
        eprintln!("fig5_pmemkv: self-validation FAILED: {e}");
        std::process::exit(1);
    }
    if let Err(e) = scaling_validation {
        eprintln!("fig5_pmemkv: scaling self-validation FAILED: {e}");
        std::process::exit(1);
    }
    println!("self-validation passed");
}
