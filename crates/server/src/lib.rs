//! `spp-server` — a network-facing persistent KV service over the
//! workspace's memory-safety policies.
//!
//! This crate turns the [`spp_kvstore`] cmap-analogue into something a
//! `memcached`-style deployment would actually run: a compact
//! length-prefixed [wire protocol](wire), a TCP [server] whose sharded
//! epoll reactors read the sockets and execute the requests (idle
//! connections cost no threads; a connection with a run in flight is not
//! read from, so load backs up into TCP flow control) and commit writes
//! themselves through one group committer per shard, a closed-loop
//! [client], and (as binaries) the `spp-server` daemon plus the
//! `spp-loadgen` load generator. The served store is selected per
//! process with `--policy pmdk|spp|safepm`, so the three policies are
//! compared end-to-end — syscalls, framing, and fences included — rather
//! than in a tight loop.
//!
//! The headline property is **acked-write durability**: a `PUT` is acked
//! only after the engine's transactional commit has flushed and fenced the
//! update, so every acked write survives a crash. The root
//! `server_crash_restart` test drives this over real sockets with
//! crash-injection and full recovery.

#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod engine;
pub mod group;
mod poll;
mod reactor;
mod repl;
pub mod ring;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, Reply};
pub use engine::{
    fresh_server_pool, fresh_server_pool_wait, KvEngine, PolicyKind, WriteOp, WriteReply,
};
pub use group::{GroupCommitter, GroupConfig, SubmitError};
pub use poll::raise_nofile_limit;
pub use ring::Ring;
pub use server::{IoMode, ReplAckMode, ReplConfig, ReplStats, Server, ServerConfig};
pub use wire::{MultiBody, ReplBatchBody, ReplOp, Request, Response, WireError};
