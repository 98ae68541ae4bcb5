//! The `spp-server` daemon: serve one persistent KV engine over TCP.
//!
//! ```text
//! spp-server [--addr 127.0.0.1] [--port 7877] [--policy pmdk|spp|safepm]
//!            [--pool-mb 64] [--lanes 16] [--nbuckets 4096] [--shards 1]
//!            [--max-conns 64]
//!            [--group-max-batch 64]
//!            [--reactors 2] [--idle-timeout-ms 0]
//!            [--pool-file PATH] [--ready-file PATH]
//!            [--repl-to ADDR] [--repl-ack-mode sync|async]
//! ```
//!
//! `--port 0` binds an ephemeral port; the daemon prints a
//! `spp-server listening on ADDR` line either way, which scripts (and the
//! CI smoke job) parse. `--ready-file` additionally publishes that address
//! to a file once the listener is bound — written to a temp file, fsynced,
//! and renamed into place, so a watcher never observes a partial write:
//! the moment the file exists, its contents are the complete address.
//! With `--pool-file`, an existing image is opened through full pmdk
//! recovery and the durable image is saved back on graceful shutdown. A
//! wire `SHUTDOWN` quiesces the server and the process exits 0.
//!
//! Connections are served — read, executed and answered — by sharded epoll
//! reactors (`--reactors N`), so thousands of idle connections are held by
//! readiness state instead of parked threads; the daemon raises `RLIMIT_NOFILE` to its hard cap so
//! the soft fd limit is not what caps them. `--idle-timeout-ms N` closes
//! connections quiet for N ms.
//!
//! `--shards N` runs N independent pools behind the crate's consistent
//! hash ring; with `--pool-file PATH`, shard 0 uses `PATH` and shard `i`
//! uses `PATH.shard{i}`. `--repl-to ADDR` turns this process into a
//! replicating primary: every committed batch is shipped to the backup
//! daemon at `ADDR` (which must already be listening) as `REPL_BATCH`
//! frames. `--repl-ack-mode sync` (the default) makes client acks wait
//! for the backup's `REPL_ACK`; `async` acks clients after local
//! durability only.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use spp_bench::{Args, Opt};
use spp_pm::{PmPool, PoolConfig};
use spp_pmdk::ObjPool;
use spp_server::{
    fresh_server_pool, raise_nofile_limit, GroupConfig, KvEngine, PolicyKind, ReplAckMode,
    ReplConfig, Server, ServerConfig,
};

/// Publish `addr` atomically: temp file in the same directory, fsync, then
/// rename over the final path (rename is atomic on POSIX).
fn write_ready_file(path: &str, addr: &std::net::SocketAddr) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{addr}")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn run() -> Result<(), String> {
    let args = Args::parse(&[
        Opt::value::<String>("addr"),
        Opt::value::<u16>("port"),
        Opt::value::<PolicyKind>("policy"),
        Opt::value::<u64>("pool-mb"),
        Opt::value::<usize>("lanes"),
        Opt::value::<u64>("nbuckets"),
        Opt::value::<usize>("shards"),
        Opt::value::<usize>("max-conns"),
        Opt::value::<usize>("group-max-batch"),
        Opt::value::<usize>("reactors"),
        Opt::value::<u64>("idle-timeout-ms"),
        Opt::value::<String>("pool-file"),
        Opt::value::<String>("ready-file"),
        Opt::value::<String>("repl-to"),
        Opt::value::<ReplAckMode>("repl-ack-mode"),
    ]);
    let addr: String = args.get("addr", "127.0.0.1".to_string());
    let port: u16 = args.get("port", 7877);
    let policy: PolicyKind = args.get("policy", PolicyKind::Spp);
    let pool_mb: u64 = args.get("pool-mb", 64);
    let lanes: usize = args.get("lanes", 16);
    let nbuckets: u64 = args.get("nbuckets", 4096);
    let shards: usize = args.get("shards", 1);
    let pool_file: String = args.get("pool-file", String::new());
    let ready_file: String = args.get("ready-file", String::new());
    let idle_timeout_ms: u64 = args.get("idle-timeout-ms", 0);
    let repl_to: String = args.get("repl-to", String::new());
    let repl_ack_mode: ReplAckMode = args.get("repl-ack-mode", ReplAckMode::Sync);
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let repl = if repl_to.is_empty() {
        None
    } else {
        let backup = repl_to
            .parse()
            .map_err(|e| format!("parse --repl-to `{repl_to}`: {e}"))?;
        Some(ReplConfig {
            backup,
            ack_mode: repl_ack_mode,
            drop_batch: None,
        })
    };
    let cfg_repl_desc = repl
        .as_ref()
        .map(|r| format!(" repl_to={} repl_ack_mode={}", r.backup, r.ack_mode));
    let cfg = ServerConfig {
        max_conns: args.get("max-conns", 64),
        group: GroupConfig {
            max_batch: args.get("group-max-batch", 64),
        },
        reactors: args.get("reactors", 2),
        idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
        repl,
        ..ServerConfig::default()
    };
    // Idle connections are cheap; don't let the default soft fd limit be
    // the thing that caps concurrency.
    let _ = raise_nofile_limit();

    // Shard i's image path: `PATH` for shard 0, `PATH.shard{i}` after —
    // so a single-shard deployment keeps its historical file name.
    let shard_file = |i: usize| -> String {
        if i == 0 {
            pool_file.clone()
        } else {
            format!("{pool_file}.shard{i}")
        }
    };
    let mut engines = Vec::with_capacity(shards);
    let mut reopened = 0usize;
    for i in 0..shards {
        let file = shard_file(i);
        let engine = if !file.is_empty() && std::path::Path::new(&file).exists() {
            // Restart path: load the saved device image and run full pmdk
            // recovery before re-attaching the engine.
            reopened += 1;
            let pm = PmPool::load_from_file(&file, PoolConfig::new(0))
                .map_err(|e| format!("load pool image `{file}`: {e}"))?;
            let pool =
                Arc::new(ObjPool::open(Arc::new(pm)).map_err(|e| format!("pool open: {e}"))?);
            KvEngine::open(pool, policy).map_err(|e| format!("shard {i} engine open: {e}"))?
        } else {
            let pool = fresh_server_pool(pool_mb << 20, lanes, false)
                .map_err(|e| format!("pool create: {e}"))?;
            KvEngine::create(pool, policy, nbuckets)
                .map_err(|e| format!("shard {i} engine create: {e}"))?
        };
        engines.push(Arc::new(engine));
    }
    let reopening = reopened > 0;

    let server = Server::start_multi(engines.clone(), (addr.as_str(), port), cfg)
        .map_err(|e| format!("bind {addr}:{port} or connect --repl-to: {e}"))?;
    println!("spp-server listening on {}", server.local_addr());
    println!(
        "spp-server policy={} shards={shards} pool_mb={pool_mb} nbuckets={nbuckets} {}{}",
        policy.label(),
        if reopening {
            "reopened=true"
        } else {
            "reopened=false"
        },
        match &cfg_repl_desc {
            Some(d) => d.as_str(),
            None => "",
        }
    );
    let _ = std::io::stdout().flush();
    if !ready_file.is_empty() {
        write_ready_file(&ready_file, &server.local_addr())
            .map_err(|e| format!("write ready file `{ready_file}`: {e}"))?;
    }

    server.wait_shutdown();
    let (batches, batched_ops) = server.group_stats();
    println!("spp-server group_commit batches={batches} ops={batched_ops}");
    if let Some(rs) = server.repl_stats() {
        println!(
            "spp-server repl shipped={} dropped={} failed={}",
            rs.shipped, rs.dropped, rs.failed
        );
    }
    server.shutdown();

    if !pool_file.is_empty() {
        for (i, engine) in engines.iter().enumerate() {
            let file = shard_file(i);
            engine
                .pool()
                .pm()
                .save_to_file(&file)
                .map_err(|e| format!("save pool image `{file}`: {e}"))?;
            println!("spp-server saved pool image to {file}");
        }
    }
    println!("spp-server shut down cleanly");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("spp-server: {msg}");
            ExitCode::from(2)
        }
    }
}
