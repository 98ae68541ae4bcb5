//! The front end: sharded epoll reactor threads driving many connections
//! each, so mostly-idle connections cost a slab entry instead of an OS
//! thread.
//!
//! Ownership model — everything single-writer:
//!
//! * each reactor thread exclusively owns its [`Epoll`] instance and a
//!   slab of [`Conn`] state machines; no connection is ever touched by two
//!   reactors;
//! * reactor 0 additionally owns the nonblocking listener. Accepted
//!   sockets are dealt round-robin: locally registered, or pushed onto the
//!   target reactor's `inbox` followed by an [`EventFd`] wakeup;
//! * workers never touch sockets. A run's job executes through
//!   `execute_ops` → [`crate::group::GroupCommitter`] and then pushes
//!   `(token, replies)` onto the owning reactor's `completions` queue and
//!   rings its eventfd — the reactor patches the reply slots and writes
//!   back in request order.
//!
//! Every run is decoded by [`decode_run`] and executed by `execute_ops`,
//! which is where the Raad-et-al-style ordering rules live (writes batch
//! up to a shared flush+fence boundary; reads and `MULTI` bodies are batch
//! barriers; acks only after the boundary) — the crash-restart and
//! group-commit atomicity proofs run against exactly this path.
//!
//! Backpressure is by readiness interest, not by refusal: a saturated
//! worker queue parks the decoded run (keeping the built job) and drops
//! `EPOLLIN`; kernel socket buffers and TCP flow control push back on the
//! client. The parked job is retried on every completion/wakeup and on a
//! short tick, so capacity is never left idle. A send backlog past the
//! high-water mark likewise drops read interest until the peer drains it.
//! The one refusal is at the door: a connection over `max_conns` is
//! answered `BUSY` and closed.
//!
//! Slab slots carry a generation, and the epoll token is
//! `slot << 32 | generation` — stale readiness events and stale worker
//! completions for a recycled slot fail the generation check and are
//! discarded.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{decode_run, encode_owned, Conn, ConnState, OwnedRequest, OwnedResponse, Stop};
use crate::poll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::queue::{Job, PushError};
use crate::server::{execute_ops, Shared};
use crate::wire::{encode_response, Response};

/// Token for the reactor's own wakeup eventfd.
const TOKEN_WAKE: u64 = u64::MAX;
/// Token for the listener (reactor 0 only).
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Grace period for flushing send backlogs during shutdown drain.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

fn conn_token(idx: usize, generation: u32) -> u64 {
    ((idx as u64) << 32) | generation as u64
}

/// Connection-limit rejection: one `BUSY` frame, then close.
fn reject_busy(mut stream: TcpStream) {
    let mut out = Vec::with_capacity(8);
    encode_response(&mut out, &Response::Busy);
    let _ = stream.write_all(&out);
}

/// The cross-thread face of one reactor: what other threads (the acceptor
/// reactor, workers, shutdown) may touch.
pub(crate) struct ReactorShared {
    /// Doorbell: readable whenever `inbox`/`completions` changed or a
    /// shutdown wants attention.
    pub(crate) wake: EventFd,
    /// Accepted sockets handed over by reactor 0.
    pub(crate) inbox: Mutex<Vec<TcpStream>>,
    /// Finished runs: `(token, replies)` pushed by worker jobs.
    pub(crate) completions: Mutex<VecDeque<(u64, Vec<OwnedResponse>)>>,
}

impl ReactorShared {
    pub(crate) fn new() -> std::io::Result<ReactorShared> {
        Ok(ReactorShared {
            wake: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(VecDeque::new()),
        })
    }
}

struct Reactor {
    idx: usize,
    epoll: Epoll,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    me: Arc<ReactorShared>,
    peers: Vec<Arc<ReactorShared>>,
    slab: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    rr: usize,
    parked: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_idle_sweep: Instant,
}

/// Body of one reactor thread. Runs until shutdown has been triggered and
/// every owned connection has drained (or the grace period expires).
pub(crate) fn reactor_main(
    idx: usize,
    epoll: Epoll,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    me: Arc<ReactorShared>,
    peers: Vec<Arc<ReactorShared>>,
) {
    let mut r = Reactor {
        idx,
        epoll,
        listener,
        shared,
        me,
        peers,
        slab: Vec::new(),
        generations: Vec::new(),
        free: Vec::new(),
        rr: 0,
        parked: 0,
        draining: false,
        drain_deadline: None,
        last_idle_sweep: Instant::now(),
    };
    r.epoll
        .add(r.me.wake.raw(), EPOLLIN, TOKEN_WAKE)
        .expect("register reactor wakeup fd");
    if let Some(l) = &r.listener {
        l.set_nonblocking(true).expect("nonblocking listener");
        r.epoll
            .add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .expect("register listener");
    }
    r.run();
}

impl Reactor {
    fn run(&mut self) {
        let mut events = [EpollEvent::zeroed(); 256];
        loop {
            let timeout = self.wait_timeout_ms();
            let n = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            let mut accept_ready = false;
            for ev in &events[..n] {
                match ev.token() {
                    TOKEN_WAKE => {
                        self.me.wake.drain();
                    }
                    TOKEN_LISTENER => accept_ready = true,
                    tok => self.handle_conn_event(tok, ev.events()),
                }
            }
            if accept_ready {
                self.accept_ready();
            }
            self.adopt_inbox();
            self.apply_completions();
            self.retry_parked();
            self.sweep_idle();
            if self.shared.shutdown.load(Ordering::SeqCst) && self.drain_step() {
                return;
            }
        }
    }

    /// How long the next wait may block: short ticks while work is parked
    /// or draining, long ticks otherwise (wakeups cover the common paths).
    fn wait_timeout_ms(&self) -> i32 {
        if self.draining {
            10
        } else if self.parked > 0 {
            5
        } else if self.shared.cfg.idle_timeout.is_some() {
            100
        } else {
            250
        }
    }

    // -- accept path --------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        continue; // accepted during shutdown: drop
                    }
                    if self.shared.conns.load(Ordering::SeqCst) >= self.shared.cfg.max_conns {
                        reject_busy(stream);
                        continue;
                    }
                    self.shared.conns.fetch_add(1, Ordering::SeqCst);
                    let target = self.rr % self.peers.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.idx {
                        self.register_conn(stream);
                    } else {
                        self.peers[target]
                            .inbox
                            .lock()
                            .expect("reactor inbox")
                            .push(stream);
                        self.peers[target].wake.signal();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn adopt_inbox(&mut self) {
        let streams = std::mem::take(&mut *self.me.inbox.lock().expect("reactor inbox"));
        for stream in streams {
            self.register_conn(stream);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.shared.conns.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.generations.push(1);
            self.slab.len() - 1
        });
        let generation = self.generations[idx];
        let mut conn = Conn::new(stream, generation, Instant::now());
        match self.epoll.add(
            conn.stream.as_raw_fd(),
            EPOLLIN,
            conn_token(idx, generation),
        ) {
            Ok(()) => {
                conn.interest = EPOLLIN;
                self.slab[idx] = Some(conn);
            }
            Err(_) => {
                self.free.push(idx);
                self.shared.conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    // -- readiness path -----------------------------------------------------

    fn handle_conn_event(&mut self, token: u64, events: u32) {
        let idx = (token >> 32) as usize;
        let generation = token as u32;
        let mut dead = false;
        {
            let Some(conn) = self.slab.get_mut(idx).and_then(|s| s.as_mut()) else {
                return;
            };
            if conn.generation != generation {
                return; // stale event for a recycled slot
            }
            let now = Instant::now();
            if events & EPOLLERR != 0 {
                dead = true;
            }
            if !dead && events & EPOLLOUT != 0 {
                dead = !conn.pump_writes(now);
            }
            if !dead && events & EPOLLIN != 0 && conn.pump_reads(now).is_err() {
                dead = true;
            }
            if !dead && events & EPOLLHUP != 0 {
                conn.peer_eof = true;
            }
        }
        if dead {
            self.close_conn(idx);
        } else {
            self.process_input(idx);
        }
    }

    /// Decode whatever is buffered on an idle connection into one run and
    /// dispatch it; then pump writes, re-sync interest, and close if the
    /// connection has quiesced.
    fn process_input(&mut self, idx: usize) {
        let dead = {
            let Some(conn) = self.slab.get_mut(idx).and_then(|s| s.as_mut()) else {
                return;
            };
            if conn.state == ConnState::Idle && !conn.closing {
                let run = decode_run(&conn.rbuf);
                if run.consumed > 0 {
                    conn.rbuf.drain(..run.consumed);
                }
                if run.execs.is_empty() {
                    // Inline-only run (PONGs, body errors) — answer without
                    // a worker round trip.
                    for reply in &run.replies {
                        encode_owned(
                            &mut conn.wbuf,
                            reply.as_ref().expect("inline run: every slot answered"),
                        );
                    }
                    if let Some(stop) = run.stop {
                        Self::apply_stop(&self.shared, conn, stop);
                    }
                } else {
                    conn.pending_replies = run.replies;
                    conn.pending_slots = run.exec_slots;
                    conn.pending_stop = run.stop;
                    let token = conn_token(idx, conn.generation);
                    let job = Self::make_job(&self.shared, &self.me, token, run.execs);
                    match self.shared.queue.try_push(job) {
                        Ok(()) => conn.state = ConnState::Running,
                        Err(PushError::Full(job)) => {
                            // Pool saturated: park the run and stop reading.
                            // The client sees flow control, never a BUSY-
                            // failed pipelined run.
                            conn.parked_job = Some(job);
                            conn.state = ConnState::Parked;
                            self.parked += 1;
                        }
                        Err(PushError::Closed(_)) => Self::fail_pending(conn),
                    }
                }
            }
            let now = Instant::now();
            if !conn.pump_writes(now) {
                true
            } else {
                Self::sync_interest(&self.epoll, idx, conn);
                conn.drained()
                    || (self.draining && conn.state == ConnState::Idle && !conn.has_backlog())
            }
        };
        if dead {
            self.close_conn(idx);
        }
    }

    /// Queue closed under us (shutdown race): answer the run's exec slots
    /// with an error and close after flushing, acking nothing as durable.
    fn fail_pending(conn: &mut Conn) {
        for slot in std::mem::take(&mut conn.pending_slots) {
            conn.pending_replies[slot] = Some(OwnedResponse::Err("server shutting down".into()));
        }
        for reply in std::mem::take(&mut conn.pending_replies) {
            encode_owned(&mut conn.wbuf, &reply.expect("every slot answered"));
        }
        conn.pending_stop = None;
        conn.closing = true;
    }

    /// Apply a decode-run stop once its run has fully answered: ack the
    /// `SHUTDOWN` (and trigger it) or report the envelope error; either
    /// way the connection flushes and closes.
    fn apply_stop(shared: &Arc<Shared>, conn: &mut Conn, stop: Stop) {
        match stop {
            Stop::Shutdown => {
                encode_response(&mut conn.wbuf, &Response::Ok);
                conn.closing = true;
                shared.trigger_shutdown();
            }
            Stop::Envelope(msg) => {
                encode_response(&mut conn.wbuf, &Response::Err(&msg));
                conn.closing = true;
            }
        }
    }

    /// Build the worker job for a run: execute through the group-commit
    /// path, then post the replies back to the owning reactor
    /// and ring its doorbell.
    fn make_job(
        shared: &Arc<Shared>,
        me: &Arc<ReactorShared>,
        token: u64,
        execs: Vec<OwnedRequest>,
    ) -> Job {
        let shards = Arc::clone(&shared.shards);
        let me = Arc::clone(me);
        Box::new(move || {
            let replies = execute_ops(&shards, execs);
            me.completions
                .lock()
                .expect("reactor completions")
                .push_back((token, replies));
            me.wake.signal();
        })
    }

    // -- completion path ----------------------------------------------------

    fn apply_completions(&mut self) {
        loop {
            let item = self
                .me
                .completions
                .lock()
                .expect("reactor completions")
                .pop_front();
            let Some((token, run_replies)) = item else {
                return;
            };
            let idx = (token >> 32) as usize;
            let generation = token as u32;
            let dead = {
                let Some(conn) = self.slab.get_mut(idx).and_then(|s| s.as_mut()) else {
                    continue; // connection died while its run executed
                };
                if conn.generation != generation || conn.state != ConnState::Running {
                    continue;
                }
                debug_assert_eq!(run_replies.len(), conn.pending_slots.len());
                for (slot, reply) in std::mem::take(&mut conn.pending_slots)
                    .into_iter()
                    .zip(run_replies)
                {
                    conn.pending_replies[slot] = Some(reply);
                }
                for reply in std::mem::take(&mut conn.pending_replies) {
                    encode_owned(&mut conn.wbuf, &reply.expect("every slot answered"));
                }
                conn.state = ConnState::Idle;
                if let Some(stop) = conn.pending_stop.take() {
                    Self::apply_stop(&self.shared, conn, stop);
                }
                if !conn.pump_writes(Instant::now()) {
                    true
                } else {
                    Self::sync_interest(&self.epoll, idx, conn);
                    conn.drained()
                }
            };
            if dead {
                self.close_conn(idx);
            } else {
                // More pipelined frames may already sit in rbuf alongside
                // new kernel bytes; decode the next run immediately.
                self.process_input(idx);
            }
        }
    }

    // -- parked runs --------------------------------------------------------

    fn retry_parked(&mut self) {
        if self.parked == 0 {
            return;
        }
        for idx in 0..self.slab.len() {
            if self.parked == 0 {
                return;
            }
            let mut dead = false;
            {
                let Some(conn) = self.slab[idx].as_mut() else {
                    continue;
                };
                if conn.state != ConnState::Parked {
                    continue;
                }
                let job = conn.parked_job.take().expect("parked run keeps its job");
                match self.shared.queue.try_push(job) {
                    Ok(()) => {
                        conn.state = ConnState::Running;
                        self.parked -= 1;
                    }
                    Err(PushError::Full(job)) => {
                        // A full queue normally means "wait for capacity" —
                        // but if a shard committer has already shut down,
                        // capacity will never come (workers would block
                        // forever on submit). Fail the run and close
                        // cleanly instead of hanging the parked client.
                        if self.shared.shards.any_committer_closed() {
                            self.parked -= 1;
                            Self::fail_pending(conn);
                            let _ = conn.pump_writes(Instant::now());
                            dead = conn.drained();
                        } else {
                            conn.parked_job = Some(job);
                        }
                    }
                    Err(PushError::Closed(_)) => {
                        self.parked -= 1;
                        Self::fail_pending(conn);
                        let _ = conn.pump_writes(Instant::now());
                        dead = conn.drained();
                    }
                }
            }
            if dead {
                self.close_conn(idx);
            }
        }
    }

    // -- idle timeout -------------------------------------------------------

    fn sweep_idle(&mut self) {
        let Some(limit) = self.shared.cfg.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let interval = (limit / 2).min(Duration::from_secs(1));
        if now.duration_since(self.last_idle_sweep) < interval {
            return;
        }
        self.last_idle_sweep = now;
        for idx in 0..self.slab.len() {
            let timed_out = matches!(
                &self.slab[idx],
                Some(c) if c.state == ConnState::Idle
                    && !c.has_backlog()
                    && now.duration_since(c.last_activity) >= limit
            );
            if timed_out {
                self.close_conn(idx);
            }
        }
    }

    // -- shutdown drain -----------------------------------------------------

    /// One drain step after the shutdown flag is up. Returns `true` when
    /// this reactor has fully quiesced: idle connections are closed
    /// immediately, in-flight/parked runs finish and flush their acks
    /// first, and a grace deadline force-closes stragglers.
    fn drain_step(&mut self) -> bool {
        let now = Instant::now();
        if !self.draining {
            self.draining = true;
            self.drain_deadline = Some(now + DRAIN_GRACE);
            // Stop accepting: dropping the listener closes its fd, which
            // also removes it from the epoll set.
            self.listener = None;
        }
        for idx in 0..self.slab.len() {
            let idle = matches!(
                &self.slab[idx],
                Some(c) if c.state == ConnState::Idle && !c.has_backlog()
            );
            if idle {
                self.close_conn(idx);
            }
        }
        let live = self.slab.iter().filter(|s| s.is_some()).count();
        if live == 0 {
            return true;
        }
        if now >= self.drain_deadline.expect("deadline set with draining") {
            for idx in 0..self.slab.len() {
                self.close_conn(idx);
            }
            return true;
        }
        false
    }

    // -- plumbing -----------------------------------------------------------

    /// Re-register the socket's interest if the desired mask changed.
    /// Dropping `EPOLLIN` while a run executes (or a backlog grows) is the
    /// backpressure mechanism; re-arming it resumes the flow.
    fn sync_interest(epoll: &Epoll, idx: usize, conn: &mut Conn) {
        let want = conn.desired_interest();
        if want != conn.interest {
            let token = conn_token(idx, conn.generation);
            if epoll.modify(conn.stream.as_raw_fd(), want, token).is_ok() {
                conn.interest = want;
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.slab[idx].take() {
            if conn.state == ConnState::Parked {
                self.parked -= 1;
            }
            self.generations[idx] = self.generations[idx].wrapping_add(1);
            self.free.push(idx);
            self.shared.conns.fetch_sub(1, Ordering::SeqCst);
            // Dropping `conn` closes the fd; the kernel removes it from
            // the epoll interest set automatically.
        }
    }
}
