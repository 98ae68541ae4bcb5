//! Primary-side replication: per-shard sinks that ship committed write
//! batches to the backup over the wire protocol.
//!
//! Each shard's [`crate::group::GroupCommitter`] owns one [`ReplSink`]:
//! after a batch commits locally, the shard's current leader hands the sink
//! the same redo ops, and the sink sends them as one `REPL_BATCH` frame and
//! blocks for the backup's `REPL_ACK` on the leader's thread (so a backup
//! that never acks stalls the leading reactor too). Sequence numbers are
//! per-shard and monotonic; the backup applies batches in arrival order on
//! a single connection, so a received ack means *every* prior batch of
//! that shard is durable on the backup too.
//!
//! The sink never retries: any ship failure (connection cut, backup error,
//! ack mismatch) poisons the connection, and in [`ReplAckMode::Sync`] the
//! leader converts the batch's client acks into errors — a client never
//! sees `OK` for a write the backup might not hold. Fault-injection hooks
//! (`cut`, `drop_batch`) exist solely for the failover rigs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::client::Client;
use crate::engine::WriteOp;
use crate::server::{ReplAckMode, ReplConfig, ReplStats};
use crate::wire::{repl_entry_size, ReplOp, REPL_MAX_ENTRY_BYTES};

/// One shard's replication stream to the backup.
pub(crate) struct ReplSink {
    shard: u32,
    ack_mode: ReplAckMode,
    /// The dedicated replication connection; poisoned (set to `None`) on
    /// the first failure. Only the shard's current leader ships, so the
    /// lock is uncontended.
    conn: Mutex<Option<Client>>,
    /// Per-shard batch sequence, starting at 1.
    next_seq: AtomicU64,
    shipped: AtomicU64,
    dropped: AtomicU64,
    failed: AtomicU64,
    /// Simulated primary death, shared across every shard's sink.
    cut: Arc<AtomicBool>,
    /// Global ship ordinal across shards, for `drop_batch`.
    counter: Arc<AtomicU64>,
    /// Drop (but pretend to ack) the batch with this global ordinal.
    drop_batch: Option<u64>,
}

impl ReplSink {
    /// Open one replication connection per shard to `cfg.backup`. All
    /// sinks share the cut flag and the global batch ordinal.
    pub(crate) fn connect_all(
        cfg: &ReplConfig,
        nshards: usize,
    ) -> Result<Vec<Arc<ReplSink>>, crate::client::ClientError> {
        let cut = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let mut sinks = Vec::with_capacity(nshards);
        for shard in 0..nshards {
            let mut client = Client::connect(cfg.backup)?;
            // Handshake: the backup refuses replication unless its shard
            // layout matches ours, so a misconfigured pair fails at
            // startup instead of silently misplacing batches.
            client.repl_hello(nshards as u32)?;
            sinks.push(Arc::new(ReplSink {
                shard: shard as u32,
                ack_mode: cfg.ack_mode,
                conn: Mutex::new(Some(client)),
                next_seq: AtomicU64::new(0),
                shipped: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                cut: Arc::clone(&cut),
                counter: Arc::clone(&counter),
                drop_batch: cfg.drop_batch,
            }));
        }
        Ok(sinks)
    }

    /// Whether client acks wait for this sink's ship to succeed.
    pub(crate) fn is_sync(&self) -> bool {
        self.ack_mode == ReplAckMode::Sync
    }

    /// Sever the stream as if the primary died: every subsequent ship
    /// fails immediately.
    pub(crate) fn cut(&self) {
        self.cut.store(true, Ordering::SeqCst);
    }

    /// Counters so far.
    pub(crate) fn stats(&self) -> ReplStats {
        ReplStats {
            shipped: self.shipped.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }

    /// Ship one committed batch and block for the backup's ack. A logical
    /// batch whose entries exceed one frame's budget is chunked into
    /// several consecutive `REPL_BATCH` frames, each consuming one
    /// sequence number, so arbitrarily large group commits never trip the
    /// encoder's frame-size limits.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the batch is *not* known to be durable
    /// on the backup; the connection is poisoned so later batches fail
    /// fast instead of shipping out of order.
    pub(crate) fn ship(&self, ops: &[WriteOp]) -> Result<(), String> {
        if ops.is_empty() {
            return Ok(());
        }
        let ordinal = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        if self.cut.load(Ordering::SeqCst) {
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err("replication stream cut".to_string());
        }
        if self.drop_batch == Some(ordinal) {
            // Injected fault: claim success without shipping — and without
            // consuming a sequence number, because this models the primary
            // silently skipping a batch. The backup's sequence check
            // cannot see the hole; the failover rig must catch it by
            // reading the backup back.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let mut guard = self.conn.lock().expect("repl conn lock");
        let Some(client) = guard.as_mut() else {
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err("replication connection poisoned by earlier failure".to_string());
        };
        let borrowed: Vec<ReplOp<'_>> = ops
            .iter()
            .map(|op| match op {
                WriteOp::Put { key, value } => ReplOp::Put { key, value },
                WriteOp::Del { key } => ReplOp::Del { key },
            })
            .collect();
        // Greedy chunking under the frame's entry-byte budget and the
        // u16 count limit. The first entry of a chunk is always taken, so
        // the pre-checks below are what keep the encoder's asserts
        // unreachable: MAX_PUT_PAYLOAD bounds every wire-accepted write,
        // and ops that never crossed the wire are screened here.
        let mut start = 0;
        while start < borrowed.len() {
            let mut bytes = 0usize;
            let mut end = start;
            while end < borrowed.len() && end - start < u16::MAX as usize {
                let op = &borrowed[end];
                let sz = repl_entry_size(op);
                let key_len = match op {
                    ReplOp::Put { key, .. } | ReplOp::Del { key } => key.len(),
                };
                if sz > REPL_MAX_ENTRY_BYTES || key_len > u16::MAX as usize {
                    *guard = None;
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("replication entry of {sz} bytes cannot be framed"));
                }
                if end > start && bytes + sz > REPL_MAX_ENTRY_BYTES {
                    break;
                }
                bytes += sz;
                end += 1;
            }
            let seq = self.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
            match client.repl_batch(self.shard, seq, &borrowed[start..end]) {
                Ok((s, q)) if s == self.shard && q == seq => {
                    self.shipped.fetch_add(1, Ordering::Relaxed);
                }
                Ok((s, q)) => {
                    *guard = None;
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    return Err(format!(
                        "replication ack mismatch: sent ({}, {seq}), got ({s}, {q})",
                        self.shard
                    ));
                }
                Err(e) => {
                    *guard = None;
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("replication ship failed: {e}"));
                }
            }
            start = end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{fresh_server_pool, KvEngine, PolicyKind};
    use crate::server::{Server, ServerConfig};
    use spp_kvstore::KEY_SIZE;

    fn key(i: u64) -> Vec<u8> {
        let mut k = vec![0u8; KEY_SIZE];
        k[..8].copy_from_slice(&i.to_be_bytes());
        k
    }

    #[test]
    fn oversized_batches_chunk_into_multiple_frames() {
        let pool = fresh_server_pool(64 << 20, 4, false).unwrap();
        let engine = Arc::new(KvEngine::create(pool, PolicyKind::Spp, 256).unwrap());
        let backup = Server::start(engine, ("127.0.0.1", 0), ServerConfig::default()).unwrap();
        let cfg = ReplConfig {
            backup: backup.local_addr(),
            ack_mode: ReplAckMode::Sync,
            drop_batch: None,
        };
        let sinks = ReplSink::connect_all(&cfg, 1).unwrap();

        // ~3 MiB of redo in one logical batch — far past MAX_FRAME — must
        // ship as several dense-sequenced frames, not panic the caller.
        let ops: Vec<WriteOp> = (1..=24u64)
            .map(|i| WriteOp::Put {
                key: key(i),
                value: vec![i as u8; 128 << 10],
            })
            .collect();
        sinks[0].ship(&ops).unwrap();
        let stats = sinks[0].stats();
        assert!(
            stats.shipped >= 3,
            "one frame per ~1MiB expected: {stats:?}"
        );
        assert_eq!(stats.failed, 0);

        // The stream stays usable: a follow-up batch continues the dense
        // sequence the backup validates.
        sinks[0].ship(&[WriteOp::Del { key: key(1) }]).unwrap();

        let engine = Arc::clone(backup.engine());
        let mut out = Vec::new();
        assert!(!engine.get(&key(1), &mut out).unwrap());
        for i in 2..=24u64 {
            out.clear();
            assert!(engine.get(&key(i), &mut out).unwrap(), "key {i}");
            assert_eq!(out, vec![i as u8; 128 << 10]);
        }
        backup.shutdown();
    }
}
