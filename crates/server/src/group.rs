//! Cross-connection group commit.
//!
//! Pipelined connections produce runs of consecutive PUT/DEL requests.
//! Instead of each connection committing its own transaction per op, writes
//! funnel through a single [`GroupCommitter`] thread that drains every
//! submission queued at that moment into **one** engine batch —
//! [`crate::engine::KvEngine::apply_write_batch`], one transaction, one
//! flush+fence boundary — and acks all submitters only after that boundary.
//!
//! Batching is piggyback-style (the PostgreSQL `commit_delay=0` shape): the
//! committer never waits for batch-mates by default, so a lone interactive
//! writer pays no added latency; under load, submissions arriving while the
//! previous batch commits pile up and ride the next boundary together. A
//! configurable `max_hold` (> 0) additionally stretches the gather window
//! for deliberately bigger batches, bounded by `max_batch` ops.
//!
//! Ack ordering is the invariant the crash tests pin down: a submission's
//! completion only runs after the batch containing its ops has committed,
//! so nothing is acked ahead of its durability boundary, and a batch is
//! atomic — crash before the shared commit record and *none* of its ops
//! survive recovery; after, *all* do.
//!
//! There is one way in, `enqueue`: it never blocks, and the submission's
//! completion runs on the committer thread. The reactors use it directly;
//! the blocking [`GroupCommitter::submit`] is "enqueue, then wait for the
//! completion".

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{KvEngine, WriteOp, WriteReply};
use crate::repl::ReplSink;
use crate::server::ReplStats;

/// Group-commit tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// Target ops per batch. The committer stops gathering once a batch
    /// reaches this many ops (a single submission larger than the target
    /// is still committed whole — submissions are never split).
    pub max_batch: usize,
    /// How long the committer may hold an open batch waiting for more
    /// submissions. Zero (the default) means pure piggyback batching: no
    /// added latency, batches form only from commit-time backlog.
    pub max_hold: Duration,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            max_batch: 64,
            max_hold: Duration::ZERO,
        }
    }
}

/// What a submission is answered with: the committed replies, index-aligned
/// with its ops, or why it was not served (then nothing was applied).
pub(crate) type Outcome = Result<Vec<WriteReply>, SubmitError>;

/// A submission's completion. Runs exactly once, on whichever thread
/// settles the submission — normally the committer's, so it must not block.
pub(crate) type Completion = Box<dyn FnOnce(Outcome) + Send>;

/// A queued submission: its ops and the completion the committed replies
/// go to. Dropped unserved (the committer thread died and its exit guard
/// cleared the queue), it completes with [`SubmitError::Closed`].
struct Pending {
    ops: Vec<WriteOp>,
    done: Option<Completion>,
}

impl Pending {
    fn complete(mut self, outcome: Outcome) {
        if let Some(done) = self.done.take() {
            done(outcome);
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done(Err(SubmitError::Closed));
        }
    }
}

struct Inner {
    queue: VecDeque<Pending>,
    closed: bool,
    /// Set by [`GroupCommitter::seal_repl`]: replication submissions are
    /// refused from here on (promotion fences this server's state).
    repl_sealed: bool,
}

/// Recover a lock (or condvar wait) result even if the mutex was poisoned
/// by a panicking committer thread: the `Inner` state is a plain queue +
/// flags with no invariant a panic can corrupt mid-update, and `enqueue`
/// must keep refusing cleanly after a committer dies.
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Handle to the committer thread. Cheap to share ([`Arc`] it); shut down
/// via [`GroupCommitter::close`], which drains queued submissions before
/// the thread exits.
pub struct GroupCommitter {
    state: Arc<(Mutex<Inner>, Condvar)>,
    thread: Mutex<Option<JoinHandle<()>>>,
    cfg: GroupConfig,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    /// Ships each committed batch to the backup (primary side only).
    repl: Option<Arc<ReplSink>>,
}

/// Why a [`GroupCommitter::submit`] was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The committer is shut down (server stopping).
    Closed,
    /// Replication submissions are sealed (this server was promoted).
    Sealed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "group committer is closed"),
            SubmitError::Sealed => write!(f, "promoted: no longer accepting replication"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl GroupCommitter {
    /// Spawn the committer thread over `engine`.
    pub fn start(engine: Arc<KvEngine>, cfg: GroupConfig) -> Arc<GroupCommitter> {
        GroupCommitter::start_with_repl(engine, cfg, None)
    }

    /// Spawn the committer thread over `engine`, optionally shipping each
    /// committed batch through `repl` (the sharded server's primary side).
    pub(crate) fn start_with_repl(
        engine: Arc<KvEngine>,
        cfg: GroupConfig,
        repl: Option<Arc<ReplSink>>,
    ) -> Arc<GroupCommitter> {
        let committer = Arc::new(GroupCommitter {
            state: Arc::new((
                Mutex::new(Inner {
                    queue: VecDeque::new(),
                    closed: false,
                    repl_sealed: false,
                }),
                Condvar::new(),
            )),
            thread: Mutex::new(None),
            cfg,
            batches: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            repl,
        });
        let thread_self = Arc::clone(&committer);
        let handle = std::thread::Builder::new()
            .name("spp-group-commit".into())
            .spawn(move || thread_self.run(&engine))
            .expect("spawn group-commit thread");
        *committer.thread.lock().unwrap() = Some(handle);
        committer
    }

    /// The one way into the committer: queue `ops` and return at once.
    /// `done` runs after the batch containing them has committed — i.e.
    /// once they are durable — with replies index-aligned with `ops`, or
    /// with the reason they were refused: [`SubmitError::Closed`] once
    /// [`close`](Self::close) has run or the committer thread has died,
    /// and, for a replicated batch (`repl`), [`SubmitError::Sealed`] once
    /// [`seal_repl`](Self::seal_repl) has. The seal is checked under the
    /// same lock that enqueues, so no replication batch can slip in after
    /// a promotion's seal+drain. A refused submission was not applied.
    ///
    /// Empty `ops` are a sentinel: the committer answers it in arrival
    /// order, after everything queued before it.
    pub(crate) fn enqueue(&self, ops: Vec<WriteOp>, repl: bool, done: Completion) {
        let refused = {
            let (lock, cv) = &*self.state;
            let mut g = relock(lock.lock());
            if g.closed {
                SubmitError::Closed
            } else if repl && g.repl_sealed {
                SubmitError::Sealed
            } else {
                g.queue.push_back(Pending {
                    ops,
                    done: Some(done),
                });
                cv.notify_one();
                return;
            }
        };
        done(Err(refused));
    }

    /// [`enqueue`](Self::enqueue), then block until the completion ran.
    fn enqueue_and_wait(&self, ops: Vec<WriteOp>, repl: bool) -> Outcome {
        let (tx, rx) = sync_channel(1);
        self.enqueue(
            ops,
            repl,
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        rx.recv().unwrap_or(Err(SubmitError::Closed))
    }

    /// Submit writes and block until the batch containing them has
    /// committed — i.e. until they are durable. Replies are index-aligned
    /// with `ops`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] once [`close`](Self::close) has run; the
    /// writes were not applied.
    pub fn submit(&self, ops: Vec<WriteOp>) -> Result<Vec<WriteReply>, SubmitError> {
        self.enqueue_and_wait(ops, false)
    }

    /// Refuse all future replicated submissions. Part of the promotion
    /// fence: seal, then [`barrier`](Self::barrier), then fence — anything
    /// replicated that beat the seal commits before the barrier returns.
    pub(crate) fn seal_repl(&self) {
        let (lock, cv) = &*self.state;
        let mut g = relock(lock.lock());
        g.repl_sealed = true;
        cv.notify_all();
    }

    /// Block until every submission enqueued before this call has been
    /// served (or the committer is closed/dead): an empty sentinel
    /// submission.
    pub(crate) fn barrier(&self) {
        let _ = self.enqueue_and_wait(Vec::new(), false);
    }

    /// (batches committed, ops committed through batches) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.batches.load(Ordering::Relaxed),
            self.batched_ops.load(Ordering::Relaxed),
        )
    }

    /// Replication counters, when this committer ships to a backup.
    pub(crate) fn repl_stats(&self) -> Option<ReplStats> {
        self.repl.as_ref().map(|r| r.stats())
    }

    /// Sever this committer's replication stream (failover-rig hook).
    pub(crate) fn cut_replication(&self) {
        if let Some(r) = &self.repl {
            r.cut();
        }
    }

    /// Stop the committer: reject new submissions, drain what is queued,
    /// and join the thread. Idempotent.
    pub fn close(&self) {
        {
            let (lock, cv) = &*self.state;
            let mut g = relock(lock.lock());
            g.closed = true;
            cv.notify_all();
        }
        if let Some(handle) = relock(self.thread.lock()).take() {
            let _ = handle.join();
        }
    }

    fn run(&self, engine: &KvEngine) {
        // If this thread exits for ANY reason — including a panic in the
        // engine or replication path — the committer must read as closed
        // and queued submitters must be released: dropping a `Pending`
        // completes it with `Closed`. Without this, a dead committer would
        // leave its connections' runs outstanding forever.
        struct CloseOnExit<'a>(&'a GroupCommitter);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                let (lock, cv) = &*self.0.state;
                let unserved = {
                    let mut g = relock(lock.lock());
                    g.closed = true;
                    cv.notify_all();
                    std::mem::take(&mut g.queue)
                };
                // Completions run outside the lock.
                drop(unserved);
            }
        }
        let _close_guard = CloseOnExit(self);
        loop {
            let mut batch = match self.gather() {
                Some(batch) => batch,
                None => return, // closed and drained
            };
            // One engine batch covering every submission gathered: one
            // transaction, one shared durability boundary. The ops are
            // moved out of their submissions, never copied.
            let mut all_ops = Vec::with_capacity(batch.iter().map(|p| p.ops.len()).sum());
            let lens: Vec<usize> = batch
                .iter_mut()
                .map(|p| {
                    let n = p.ops.len();
                    all_ops.append(&mut p.ops);
                    n
                })
                .collect();
            let total = all_ops.len();
            let mut replies = engine.apply_write_batch(&all_ops);
            if total > 0 {
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.batched_ops.fetch_add(total as u64, Ordering::Relaxed);
            }
            // Replication rides between the local boundary and the client
            // acks. Only ops the engine accepted are shipped — a locally
            // rejected op (bad key) must not reach the backup, where it
            // would diverge the streams or be unframeable. Sync mode ships
            // first and fails the whole batch's acks if the backup did not
            // confirm — a client never sees OK for a write that is not
            // durable on both sides. Async mode acks first and ships after
            // (below), trading that guarantee away.
            let rejected = |r: &WriteReply| matches!(r, WriteReply::Err(_));
            let to_ship = if self.repl.is_some() && replies.iter().any(rejected) {
                all_ops
                    .into_iter()
                    .zip(&replies)
                    .filter(|(_, r)| !rejected(r))
                    .map(|(op, _)| op)
                    .collect()
            } else {
                all_ops
            };
            let mut ship_async = false;
            if let Some(repl) = &self.repl {
                if repl.is_sync() {
                    if let Err(msg) = repl.ship(&to_ship) {
                        // Locally applied but not replicated: refuse the
                        // ack so the write is never counted as durable.
                        for r in &mut replies {
                            *r = WriteReply::Err(format!("not replicated: {msg}"));
                        }
                    }
                } else {
                    ship_async = true;
                }
            }
            // Ack only now, after the boundary.
            let mut replies = replies.into_iter();
            for (p, n) in batch.into_iter().zip(lens) {
                p.complete(Ok(replies.by_ref().take(n).collect()));
            }
            if ship_async {
                if let Some(repl) = &self.repl {
                    // Best effort: the clients were already acked on local
                    // durability alone.
                    let _ = repl.ship(&to_ship);
                }
            }
        }
    }

    /// Block for the next batch: at least one submission, then everything
    /// already queued (and, with `max_hold > 0`, whatever else arrives
    /// inside the hold window) up to `max_batch` ops. `None` means closed
    /// and fully drained.
    fn gather(&self) -> Option<Vec<Pending>> {
        let (lock, cv) = &*self.state;
        let mut g = relock(lock.lock());
        // Wait for the first submission.
        loop {
            if let Some(p) = g.queue.pop_front() {
                let mut nops = p.ops.len();
                let mut batch = vec![p];
                // Greedy drain of the existing backlog.
                while nops < self.cfg.max_batch {
                    match g.queue.pop_front() {
                        Some(p) => {
                            nops += p.ops.len();
                            batch.push(p);
                        }
                        None => break,
                    }
                }
                // Optional hold window to let more submissions arrive.
                if self.cfg.max_hold > Duration::ZERO {
                    let deadline = Instant::now() + self.cfg.max_hold;
                    while nops < self.cfg.max_batch && !g.closed {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (g2, timeout) = relock(cv.wait_timeout(g, deadline - now));
                        g = g2;
                        while nops < self.cfg.max_batch {
                            match g.queue.pop_front() {
                                Some(p) => {
                                    nops += p.ops.len();
                                    batch.push(p);
                                }
                                None => break,
                            }
                        }
                        if timeout.timed_out() {
                            break;
                        }
                    }
                }
                return Some(batch);
            }
            if g.closed {
                return None;
            }
            g = relock(cv.wait(g));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{fresh_server_pool, KvEngine, PolicyKind};
    use spp_kvstore::KEY_SIZE;

    fn key(i: u64) -> Vec<u8> {
        let mut k = vec![0u8; KEY_SIZE];
        k[..8].copy_from_slice(&i.to_be_bytes());
        k
    }

    fn engine() -> Arc<KvEngine> {
        let pool = fresh_server_pool(16 << 20, 4, false).unwrap();
        Arc::new(KvEngine::create(pool, PolicyKind::Spp, 64).unwrap())
    }

    #[test]
    fn submit_applies_and_acks() {
        let engine = engine();
        let gc = GroupCommitter::start(Arc::clone(&engine), GroupConfig::default());
        let replies = gc
            .submit(vec![
                WriteOp::Put {
                    key: key(1),
                    value: b"gc-1".to_vec(),
                },
                WriteOp::Del { key: key(2) },
            ])
            .unwrap();
        assert_eq!(replies, vec![WriteReply::Ok, WriteReply::NotFound]);
        let mut out = Vec::new();
        assert!(engine.get(&key(1), &mut out).unwrap());
        assert_eq!(out, b"gc-1");
        gc.close();
    }

    #[test]
    fn concurrent_submitters_coalesce_into_fewer_batches() {
        let engine = engine();
        // A hold window forces submissions from many threads to ride
        // shared boundaries.
        let gc = GroupCommitter::start(
            Arc::clone(&engine),
            GroupConfig {
                max_batch: 256,
                max_hold: Duration::from_millis(5),
            },
        );
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let gc = &gc;
                s.spawn(move || {
                    for i in 0..20u64 {
                        let replies = gc
                            .submit(vec![WriteOp::Put {
                                key: key(t * 1000 + i),
                                value: vec![t as u8; 32],
                            }])
                            .unwrap();
                        assert_eq!(replies, vec![WriteReply::Ok]);
                    }
                });
            }
        });
        let (batches, ops) = gc.stats();
        assert_eq!(ops, 160);
        assert!(
            batches < 160,
            "8 concurrent submitters never shared a boundary ({batches} batches)"
        );
        assert_eq!(engine.count().unwrap(), 160);
        gc.close();
    }

    #[test]
    fn close_rejects_new_and_drains_queued() {
        let engine = engine();
        let gc = GroupCommitter::start(Arc::clone(&engine), GroupConfig::default());
        gc.close();
        let err = gc
            .submit(vec![WriteOp::Put {
                key: key(1),
                value: b"late".to_vec(),
            }])
            .unwrap_err();
        assert_eq!(err, SubmitError::Closed);
        assert_eq!(engine.count().unwrap(), 0);
        // Idempotent.
        gc.close();
    }

    #[test]
    fn submission_dropped_unserved_completes_closed() {
        // What a dying committer's exit guard does to its queue: every
        // completion still runs, with `Closed`, so no run waits forever.
        let (tx, rx) = sync_channel(1);
        drop(Pending {
            ops: vec![WriteOp::Del { key: key(1) }],
            done: Some(Box::new(move |outcome| tx.send(outcome).unwrap())),
        });
        assert_eq!(rx.try_recv().unwrap(), Err(SubmitError::Closed));
    }

    #[test]
    fn empty_submit_is_a_noop() {
        let gc = GroupCommitter::start(engine(), GroupConfig::default());
        assert_eq!(gc.submit(Vec::new()).unwrap(), Vec::new());
        gc.close();
    }

    #[test]
    fn seal_rejects_replication_but_not_clients() {
        let engine = engine();
        let gc = GroupCommitter::start(Arc::clone(&engine), GroupConfig::default());
        let replies = gc
            .enqueue_and_wait(
                vec![WriteOp::Put {
                    key: key(1),
                    value: b"before-seal".to_vec(),
                }],
                true,
            )
            .unwrap();
        assert_eq!(replies, vec![WriteReply::Ok]);

        gc.seal_repl();
        let err = gc
            .enqueue_and_wait(
                vec![WriteOp::Put {
                    key: key(2),
                    value: b"after-seal".to_vec(),
                }],
                true,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Sealed);

        // The barrier drains cleanly and ordinary client writes still flow.
        gc.barrier();
        let replies = gc
            .submit(vec![WriteOp::Put {
                key: key(3),
                value: b"client".to_vec(),
            }])
            .unwrap();
        assert_eq!(replies, vec![WriteReply::Ok]);
        assert_eq!(engine.count().unwrap(), 2);
        gc.close();
        // Post-close, the barrier is a no-op rather than a hang.
        gc.barrier();
    }
}
