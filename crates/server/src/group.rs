//! Cross-connection group commit, run by whoever submits.
//!
//! Writes funnel through one [`GroupCommitter`] per shard, which commits
//! every submission queued at that moment as **one** engine batch
//! ([`crate::engine::KvEngine::apply_write_batch`]: one transaction, one
//! flush+fence boundary) and acks them only after that boundary. There is
//! no committer thread: batching is leader/follower piggybacking (the
//! PostgreSQL `commit_delay=0` shape). A submitter queues and, if no thread
//! leads the shard, becomes its **leader**: it commits the queue on its own
//! thread, FIFO and up to `max_batch` ops per boundary, while followers only
//! queue and ride its next boundary. The server's reactors queue what they
//! read in one turn and lead at its end. The invariants:
//!
//! * `leading` and the queue change under one lock; a leader steps down
//!   under it, with the queue empty or reporting work left to a caller that
//!   then owes another `lead_queued` — nothing is stranded.
//! * A leader serves what was queued when it took the lead, not whatever
//!   others keep queueing: its thread's own work is never held off for long.
//! * One leader at a time, so per-shard FIFO and per-key order hold.
//! * A completion runs after its boundary, on the leader's thread, and
//!   never blocks.
//! * [`GroupCommitter::close`] rejects new submissions, then waits for the
//!   in-flight leader to drain.
//! * A leader that unwinds closes the committer, completes what is queued
//!   with [`SubmitError::Closed`], releases `close`, and its thread carries
//!   on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex};

use crate::engine::{KvEngine, WriteOp, WriteReply};
use crate::repl::ReplSink;
use crate::server::ReplStats;

/// Group-commit tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// Target ops per batch. A leader stops gathering once a batch reaches
    /// this many ops (a single submission larger than the target is still
    /// committed whole — submissions are never split).
    pub max_batch: usize,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig { max_batch: 64 }
    }
}

/// What a submission is answered with: the committed replies, index-aligned
/// with its ops, or why it was not served (then nothing was applied).
pub(crate) type Outcome = Result<Vec<WriteReply>, SubmitError>;

/// A submission's completion. Runs exactly once, on whichever thread
/// settles the submission — normally the leader's, so it must not block.
pub(crate) type Completion = Box<dyn FnOnce(Outcome) + Send>;

/// A queued submission: its ops and the completion the replies go to.
/// Dropped unserved (its leader unwound), it completes with `Closed`.
struct Pending {
    ops: Vec<WriteOp>,
    done: Option<Completion>,
}

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done(Err(SubmitError::Closed));
        }
    }
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<Pending>,
    /// Some thread is serving `queue`. False while it is non-empty only
    /// until the thread that queued (or stepped down) leads again.
    leading: bool,
    closed: bool,
    /// Set by [`GroupCommitter::seal_repl`]: replication submissions are
    /// refused from here on (promotion fences this server's state).
    repl_sealed: bool,
}

/// Recover a lock (or condvar wait) result even if the mutex was poisoned:
/// `Inner` has no invariant a panic can break mid-update, and `queue` must
/// keep refusing cleanly after a leader dies.
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One shard's group committer. Cheap to share ([`Arc`] it); shut down via
/// [`GroupCommitter::close`].
pub struct GroupCommitter {
    engine: Arc<KvEngine>,
    /// The queue and flags; the condvar wakes [`close`](Self::close) when
    /// the last leader of a closed committer steps down.
    state: (Mutex<Inner>, Condvar),
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
    /// A committer over `engine`. It starts no thread: submitters commit.
    pub fn start(engine: Arc<KvEngine>, cfg: GroupConfig) -> Arc<GroupCommitter> {
        GroupCommitter::start_with_repl(engine, cfg, None)
    }

    /// A committer over `engine`, optionally shipping each committed batch
    /// through `repl` (the sharded server's primary side).
    pub(crate) fn start_with_repl(
        engine: Arc<KvEngine>,
        cfg: GroupConfig,
        repl: Option<Arc<ReplSink>>,
    ) -> Arc<GroupCommitter> {
        Arc::new(GroupCommitter {
            engine,
            state: (Mutex::new(Inner::default()), Condvar::new()),
            cfg,
            batches: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            repl,
        })
    }

    /// Queue `ops` without leading; the caller owes the shard a
    /// [`lead_queued`](Self::lead_queued) if this returns `true`. `done`
    /// runs once the batch containing `ops` has committed, with replies
    /// index-aligned with `ops`, or with why they were refused (and not
    /// applied): [`SubmitError::Closed`] once [`close`](Self::close) has run
    /// or a leader has unwound, and, for a replicated batch (`repl`),
    /// [`SubmitError::Sealed`] once [`seal_repl`](Self::seal_repl) has —
    /// checked under the lock that queues, so nothing replicated slips in
    /// after a promotion's seal. Empty `ops` are a sentinel, answered after
    /// everything queued before.
    pub(crate) fn queue(&self, ops: Vec<WriteOp>, repl: bool, done: Completion) -> bool {
        let mut g = relock(self.state.0.lock());
        if g.closed || (repl && g.repl_sealed) {
            let refused = if g.closed {
                SubmitError::Closed
            } else {
                SubmitError::Sealed
            };
            drop(g);
            done(Err(refused));
            return false;
        }
        g.queue.push_back(Pending {
            ops,
            done: Some(done),
        });
        true
    }

    /// [`queue`](Self::queue), then lead until the queue is empty or
    /// another thread leads it. Never waits for another thread.
    pub(crate) fn enqueue(&self, ops: Vec<WriteOp>, repl: bool, done: Completion) {
        if self.queue(ops, repl, done) {
            while self.lead_queued() {}
        }
    }

    /// If the queue is not empty and nobody leads it, lead it: commit, on
    /// this thread, the submissions queued at this moment (all of them once
    /// closed). Returns `true` if it stepped down with work still queued,
    /// which the caller then owes another call.
    pub(crate) fn lead_queued(&self) -> bool {
        let (lock, cv) = &self.state;
        let owed = {
            let mut g = relock(lock.lock());
            if g.leading || g.queue.is_empty() {
                return false;
            }
            g.leading = true;
            g.queue.len()
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.lead(owed))).unwrap_or_else(
            |_| {
                // The leader unwound out of the engine, the replication path
                // or a completion (its batch completed `Closed` on the way).
                // Close, release `close`, and fail the queue outside the lock.
                let mut g = relock(lock.lock());
                (g.closed, g.leading) = (true, false);
                cv.notify_all();
                let unserved = std::mem::take(&mut g.queue);
                drop(g);
                drop(unserved);
                false
            },
        )
    }

    /// [`enqueue`](Self::enqueue), then block until the completion ran.
    fn enqueue_and_wait(&self, ops: Vec<WriteOp>, repl: bool) -> Outcome {
        let (tx, rx) = sync_channel(1);
        self.enqueue(ops, repl, Box::new(move |outcome| drop(tx.send(outcome))));
        rx.recv().unwrap_or(Err(SubmitError::Closed))
    }

    /// Submit writes and block until the batch containing them has
    /// committed (is durable). Replies are index-aligned with `ops`.
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
        relock(self.state.0.lock()).repl_sealed = true;
    }

    /// Block until every submission enqueued before this call has been
    /// served (or the committer is closed): an empty sentinel submission.
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

    /// Stop the committer: reject new submissions, then wait for the
    /// in-flight leader to drain what is queued (or drain it here if none
    /// leads it). Idempotent. Must not be called from a completion (its
    /// leader would wait for itself).
    pub fn close(&self) {
        let (lock, cv) = &self.state;
        relock(lock.lock()).closed = true;
        self.lead_queued();
        let mut g = relock(lock.lock());
        while g.leading {
            g = relock(cv.wait(g));
        }
    }

    /// Serve the queue as its leader: take up to `max_batch` ops of
    /// submissions in FIFO order, commit them as one boundary, repeat until
    /// the `owed` submissions queued when it took over are served (or, once
    /// closed, the queue is empty). Returns whether work is left.
    fn lead(&self, mut owed: usize) -> bool {
        loop {
            let batch = {
                let (lock, cv) = &self.state;
                let mut g = relock(lock.lock());
                if g.queue.is_empty() || (owed == 0 && !g.closed) {
                    g.leading = false;
                    if g.closed {
                        cv.notify_all();
                    }
                    return !g.queue.is_empty();
                }
                let mut nops = 0;
                let mut batch = Vec::new();
                while nops < self.cfg.max_batch {
                    let Some(p) = g.queue.pop_front() else { break };
                    nops += p.ops.len();
                    batch.push(p);
                }
                owed = owed.saturating_sub(batch.len());
                batch
            };
            self.commit(batch);
        }
    }

    /// Commit `batch` as one engine batch, ship it, then ack every
    /// submission in it.
    fn commit(&self, mut batch: Vec<Pending>) {
        // One transaction, one shared durability boundary for every
        // submission; the ops are moved out of them, never copied.
        let mut all_ops = Vec::with_capacity(batch.iter().map(|p| p.ops.len()).sum());
        let lens: Vec<usize> = batch
            .iter_mut()
            .map(|p| {
                let n = p.ops.len();
                all_ops.append(&mut p.ops);
                n
            })
            .collect();
        let total = all_ops.len() as u64;
        let mut replies = self.engine.apply_write_batch(&all_ops);
        if total > 0 {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batched_ops.fetch_add(total, Ordering::Relaxed);
        }
        // Replication rides between the local boundary and the client
        // acks. Only ops the engine accepted are shipped: a locally rejected
        // op (bad key) would diverge the streams or be unframeable. Sync
        // mode ships first and fails the batch's acks if the backup did not
        // confirm; async mode acks first and ships after, trading that away.
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
        if let Some(repl) = self.repl.as_ref().filter(|r| r.is_sync()) {
            if let Err(msg) = repl.ship(&to_ship) {
                // Locally applied but not replicated: refuse the ack so the
                // write is never counted as durable.
                for r in &mut replies {
                    *r = WriteReply::Err(format!("not replicated: {msg}"));
                }
            }
        }
        // Ack only now, after the boundary.
        let mut replies = replies.into_iter();
        for (mut p, n) in batch.into_iter().zip(lens) {
            if let Some(done) = p.done.take() {
                done(Ok(replies.by_ref().take(n).collect()));
            }
        }
        if let Some(repl) = self.repl.as_ref().filter(|r| !r.is_sync()) {
            // Best effort: the clients were already acked on local
            // durability alone.
            let _ = repl.ship(&to_ship);
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

    /// An engine whose fences wait `flush_wait_ns` of wall clock, yielding
    /// the core: a commit slow enough for other submitters to queue behind.
    fn slow_engine(flush_wait_ns: u32) -> Arc<KvEngine> {
        let pool = crate::engine::fresh_server_pool_wait(16 << 20, 4, flush_wait_ns).unwrap();
        let engine = KvEngine::create(Arc::clone(&pool), PolicyKind::Spp, 64).unwrap();
        pool.pm().set_latency_enabled(true);
        Arc::new(engine)
    }

    fn put(i: u64, value: &[u8]) -> Vec<WriteOp> {
        vec![WriteOp::Put {
            key: key(i),
            value: value.to_vec(),
        }]
    }

    #[test]
    fn concurrent_submitters_coalesce_into_fewer_batches() {
        // Each boundary waits on the device, so submissions from the other
        // threads queue behind the current leader and ride its next batch.
        let engine = slow_engine(100_000);
        let gc = GroupCommitter::start(Arc::clone(&engine), GroupConfig { max_batch: 256 });
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let gc = &gc;
                s.spawn(move || {
                    for i in 0..20u64 {
                        let replies = gc.submit(put(t * 1000 + i, &[t as u8; 32]));
                        assert_eq!(replies, Ok(vec![WriteReply::Ok]));
                    }
                });
            }
        });
        let (batches, ops) = gc.stats();
        assert_eq!(ops, 160);
        assert!(batches < 160, "never shared a boundary ({batches} batches)");
        assert_eq!(engine.count().unwrap(), 160);
        gc.close();
    }

    #[test]
    fn no_submission_is_stranded_between_leaders() {
        // Blocking submits and fire-and-forget enqueues from 8 threads race
        // for leadership of one committer. Every completion must run, each
        // thread's writes must be served in its submission order, and every
        // op must be counted.
        const N: u64 = 50;
        let engine = engine();
        let gc = GroupCommitter::start(Arc::clone(&engine), GroupConfig::default());
        let served = Arc::new(Mutex::new(vec![Vec::new(); 8]));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (gc, served) = (&gc, &served);
                s.spawn(move || {
                    for i in 0..N {
                        let ops = put(t as u64, &i.to_be_bytes());
                        let served = Arc::clone(served);
                        let done = move |outcome| {
                            assert_eq!(outcome, Ok(vec![WriteReply::Ok]));
                            served.lock().unwrap()[t].push(i);
                        };
                        if i % 2 == 0 {
                            gc.enqueue(ops, false, Box::new(done));
                        } else {
                            done(gc.submit(ops));
                        }
                    }
                });
            }
        });
        gc.barrier();
        for (t, order) in served.lock().unwrap().iter().enumerate() {
            assert_eq!(*order, (0..N).collect::<Vec<_>>(), "thread {t}");
            let mut out = Vec::new();
            assert!(engine.get(&key(t as u64), &mut out).unwrap());
            assert_eq!(out, (N - 1).to_be_bytes(), "thread {t}'s last write");
        }
        assert_eq!(gc.stats().1, 8 * N);
        gc.close();
    }

    #[test]
    fn an_idle_shard_commits_on_the_callers_thread() {
        let gc = GroupCommitter::start(engine(), GroupConfig::default());
        let (tx, rx) = sync_channel(1);
        let done = move |outcome| tx.send((outcome, std::thread::current().id())).unwrap();
        gc.enqueue(put(1, b"inline"), false, Box::new(done));
        // Already committed and answered when `enqueue` returns.
        let (outcome, committed_on) = rx.try_recv().expect("completion ran inline");
        assert_eq!(outcome, Ok(vec![WriteReply::Ok]));
        assert_eq!(committed_on, std::thread::current().id());
        gc.close();
    }

    #[test]
    fn a_leader_serves_only_what_was_queued_when_it_took_the_lead() {
        // Four queued one-op submissions, two per boundary: queueing commits
        // nothing, and one lead commits them in two boundaries. Each
        // completion queues another submission, as other reactors keep
        // doing under load; the leader steps down reporting work left
        // instead of serving the refills for as long as they come.
        let gc = GroupCommitter::start(engine(), GroupConfig { max_batch: 2 });
        for i in 0..4 {
            let refill = Arc::clone(&gc);
            let done = move |outcome| {
                assert_eq!(outcome, Ok(vec![WriteReply::Ok]));
                let ok = |o| assert_eq!(o, Ok(vec![WriteReply::Ok]));
                assert!(refill.queue(put(100 + i, b"refill"), false, Box::new(ok)));
            };
            assert!(gc.queue(put(i, b"queued"), false, Box::new(done)));
        }
        assert_eq!(gc.stats(), (0, 0), "queueing commits nothing");
        assert!(gc.lead_queued(), "stepped down with the refills queued");
        assert_eq!(gc.stats(), (2, 4), "held for exactly two boundaries");
        assert!(!gc.lead_queued(), "the refills drained the queue");
        assert_eq!(gc.stats(), (4, 8));
        gc.close();
    }

    #[test]
    fn an_unwinding_leader_closes_the_committer() {
        let engine = engine();
        let gc = GroupCommitter::start(Arc::clone(&engine), GroupConfig::default());
        let (in_completion, leading) = sync_channel(1);
        let (release, released) = sync_channel::<()>(1);
        std::thread::scope(|s| {
            // The leader: its own completion holds it mid-batch, then panics.
            // The panic is caught at the lead: the thread is not lost.
            let held = move |_| {
                in_completion.send(()).unwrap();
                released.recv().unwrap();
                panic!("injected leader failure");
            };
            let leader = s.spawn(|| gc.enqueue(put(1, b"committed"), false, Box::new(held)));
            leading.recv().unwrap();
            // Followers queue behind the held leader.
            let (tx, followers) = std::sync::mpsc::channel();
            for i in 2..4 {
                let tx = tx.clone();
                let done = move |o| tx.send(o).unwrap();
                gc.enqueue(put(i, b"queued"), false, Box::new(done));
            }
            let (closed, close_returned) = sync_channel(1);
            let gc = &gc;
            s.spawn(move || {
                gc.close();
                closed.send(()).unwrap();
            });
            release.send(()).unwrap();
            assert!(leader.join().is_ok(), "the leading thread carries on");
            for _ in 2..4 {
                assert_eq!(followers.recv().unwrap(), Err(SubmitError::Closed));
            }
            close_returned
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("close() returned after the leader unwound");
        });
        assert_eq!(gc.submit(put(5, b"late")), Err(SubmitError::Closed));
        // Only the batch that committed before the unwind was applied.
        assert_eq!(engine.count().unwrap(), 1);
        gc.close();
    }

    #[test]
    fn close_rejects_new_and_drains_queued() {
        let engine = engine();
        let gc = GroupCommitter::start(Arc::clone(&engine), GroupConfig::default());
        // Queued with no leader: `close` commits it before it returns.
        let (tx, rx) = sync_channel(1);
        let done = move |outcome| tx.send(outcome).unwrap();
        assert!(gc.queue(put(1, b"owed"), false, Box::new(done)));
        gc.close();
        assert_eq!(rx.try_recv().unwrap(), Ok(vec![WriteReply::Ok]));
        assert_eq!(gc.submit(put(2, b"late")), Err(SubmitError::Closed));
        assert_eq!(engine.count().unwrap(), 1);
        // Idempotent.
        gc.close();
    }

    #[test]
    fn submission_dropped_unserved_completes_closed() {
        // What an unwinding leader does to the queue it leaves: every
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
        let replies = gc.enqueue_and_wait(put(1, b"before-seal"), true);
        assert_eq!(replies, Ok(vec![WriteReply::Ok]));

        gc.seal_repl();
        let err = gc.enqueue_and_wait(put(2, b"after-seal"), true);
        assert_eq!(err, Err(SubmitError::Sealed));

        // The barrier drains cleanly and ordinary client writes still flow.
        gc.barrier();
        assert_eq!(gc.submit(put(3, b"client")), Ok(vec![WriteReply::Ok]));
        assert_eq!(engine.count().unwrap(), 2);
        gc.close();
        // Post-close, the barrier is a no-op rather than a hang.
        gc.barrier();
    }
}
