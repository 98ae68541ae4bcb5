//! The reactors: sharded epoll threads that each drive many connections —
//! reading, executing and answering — so mostly-idle connections cost a
//! slab entry instead of an OS thread and a request crosses no thread it
//! does not have to.
//!
//! Ownership model — everything single-writer:
//!
//! * each reactor thread exclusively owns its [`Epoll`] instance and a
//!   slab of [`Conn`] state machines; no connection is ever touched by two
//!   reactors;
//! * reactor 0 additionally owns the nonblocking listener. Accepted
//!   sockets are dealt round-robin: locally registered, or pushed onto the
//!   target reactor's `inbox` followed by an [`EventFd`] wakeup;
//! * a commit's completion never touches a socket: its leader pushes
//!   `(token, answer)` onto the owning reactor's `completions` queue and
//!   rings its eventfd — the owner patches the reply slots, resumes the
//!   run, and writes back in request order once it is finished.
//!
//! Every run is decoded by [`decode_run`] and interpreted by
//! [`advance`], which is where the Raad-et-al-style ordering rules live
//! (writes batch up to a shared flush+fence boundary; reads and `MULTI`
//! bodies are batch barriers; acks only after the boundary) — the
//! crash-restart and group-commit atomicity proofs run against exactly
//! this path. Writes only queue while a reactor handles a turn's events;
//! at the end of the turn it leads every shard nobody leads (`group.rs`),
//! so the stretches all its connections read share one boundary. A
//! connection whose write queued behind another reactor's commit has no
//! read interest until the completion arrives.
//!
//! Backpressure is by readiness interest, not by refusal (the contract is
//! in `server.rs`): a connection with a run in flight, or a send backlog
//! past the high-water mark, has no read interest; only a connection over
//! `max_conns` is answered `BUSY`, at the door.
//!
//! Slab slots carry a generation, and the epoll token is
//! `slot << 32 | generation` — stale readiness events and stale commit
//! completions for a recycled slot fail the generation check and are
//! discarded.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{decode_run, Conn, Stop};
use crate::poll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::server::{advance, Answer, Shared};
use crate::wire::{encode_response, Response};

/// Token for the reactor's own wakeup eventfd.
const TOKEN_WAKE: u64 = u64::MAX;
/// Token for the listener (reactor 0 only).
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Grace period for flushing send backlogs during shutdown drain.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Bytes one socket read asks for.
const READ_CHUNK: usize = 16 * 1024;

/// Whether a turn yields the CPU: every second turn that handed off a
/// one-request run (`yielded` alternates); pipelined runs never yield. On a
/// shared CPU the fair scheduler's `sched_yield` pushes the yielder's
/// deadline back a whole slice, and the reactor's own client waits that
/// out; never yielding makes the reads queued behind the reactor wait
/// instead. Alternating pays half the deferrals and still lets those reads
/// through (EXPERIMENTS.md § Commit on the thread that submits).
fn takes_yield(handed_off: bool, yielded: &mut bool) -> bool {
    if handed_off {
        *yielded = !*yielded;
    }
    handed_off && *yielded
}

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
/// reactor, commit leaders, shutdown) may touch.
pub(crate) struct ReactorShared {
    /// Doorbell: readable whenever `inbox`/`completions` changed or a
    /// shutdown wants attention.
    pub(crate) wake: EventFd,
    /// Accepted sockets handed over by reactor 0.
    pub(crate) inbox: Mutex<Vec<TcpStream>>,
    /// Answered submissions: `(token, answer)` pushed by commit leaders.
    pub(crate) completions: Mutex<VecDeque<(u64, Answer)>>,
}

impl ReactorShared {
    pub(crate) fn new() -> std::io::Result<ReactorShared> {
        Ok(ReactorShared {
            wake: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(VecDeque::new()),
        })
    }

    /// Post a commit's answer for the run of connection `token` and ring
    /// the doorbell. Any leader, an unwinding one included, calls this: it
    /// never blocks and never panics on a poisoned lock.
    pub(crate) fn post(&self, token: u64, answer: Answer) {
        self.completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back((token, answer));
        self.wake.signal();
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
    /// This turn of the loop submitted a closed-loop write: a one-request
    /// run, whose client waits for exactly that commit.
    handed_off: bool,
    /// Whether the last turn that set `handed_off` yielded (they alternate).
    yielded: bool,
    /// A run was driven into queueing writes since the last lead.
    submitted: bool,
    /// A tenure ended with writes still queued: lead again next turn,
    /// without sleeping in between.
    lead_again: bool,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_idle_sweep: Instant,
    /// The buffer every connection's socket reads go through, allocated
    /// and zeroed once per reactor rather than per read.
    read_chunk: Box<[u8]>,
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
        handed_off: false,
        yielded: false,
        submitted: false,
        lead_again: false,
        draining: false,
        drain_deadline: None,
        last_idle_sweep: Instant::now(),
        read_chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
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
            self.commit_turn();
            if takes_yield(std::mem::take(&mut self.handed_off), &mut self.yielded) {
                // This reactor has just committed a closed-loop client's
                // write while connections' reads queued behind that commit
                // for the CPU: offer it to them, then take what has been
                // answered. With a core of its own the yield returns at
                // once.
                std::thread::yield_now();
                self.commit_turn();
            }
            self.sweep_idle();
            if self.shared.shutdown.load(Ordering::SeqCst) && self.drain_step() {
                return;
            }
        }
    }

    /// End of a turn: lead the writes queued so far, then apply what has
    /// been answered — which can drive runs into queueing their next
    /// stage, led in turn.
    fn commit_turn(&mut self) {
        loop {
            self.submitted = false;
            self.lead_again = self.shared.shards.lead_queued();
            self.apply_completions();
            if !self.submitted {
                return;
            }
        }
    }

    /// How long the next wait may block: not at all when a tenure left
    /// writes queued, short ticks while draining, long ticks otherwise
    /// (wakeups cover the common paths).
    fn wait_timeout_ms(&self) -> i32 {
        if self.lead_again {
            0
        } else if self.draining {
            10
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
            if !dead && events & EPOLLIN != 0 && conn.pump_reads(now, &mut self.read_chunk).is_err()
            {
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
    /// start interpreting it; then pump writes, re-sync interest, and close
    /// if the connection has quiesced.
    fn process_input(&mut self, idx: usize) {
        let dead = {
            let Some(conn) = self.slab.get_mut(idx).and_then(|s| s.as_mut()) else {
                return;
            };
            if conn.run.is_none() && !conn.closing {
                let run = decode_run(&conn.rbuf);
                if run.consumed > 0 {
                    conn.rbuf.drain(..run.consumed);
                    let closed_loop = run.replies.len() == 1;
                    conn.run = Some(run);
                    let in_flight = Self::drive(&self.shared, &self.me, idx, conn);
                    self.submitted |= in_flight;
                    self.handed_off |= in_flight && closed_loop;
                } else if let Some(stop) = run.stop {
                    Self::apply_stop(&self.shared, conn, stop);
                }
            }
            let now = Instant::now();
            if !conn.pump_writes(now) {
                true
            } else {
                Self::sync_interest(&self.epoll, idx, conn);
                conn.drained() || (self.draining && conn.run.is_none() && !conn.has_backlog())
            }
        };
        if dead {
            self.close_conn(idx);
        }
    }

    /// Interpret the connection's run as far as it goes without waiting.
    /// If it finishes, write its replies back in request order and apply
    /// its stop; otherwise (`true`) it has queued writes and stays in
    /// flight, its socket unread, until their answers arrive through
    /// `apply_completions`.
    fn drive(shared: &Arc<Shared>, me: &Arc<ReactorShared>, idx: usize, conn: &mut Conn) -> bool {
        let Some(run) = conn.run.as_mut() else {
            return false;
        };
        if !advance(&shared.shards, run, me, conn_token(idx, conn.generation)) {
            return true;
        }
        let run = conn.run.take().expect("checked above");
        run.encode_replies(&mut conn.wbuf);
        if let Some(stop) = run.stop {
            Self::apply_stop(shared, conn, stop);
        }
        false
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

    // -- completion path ----------------------------------------------------

    fn apply_completions(&mut self) {
        loop {
            let item = self
                .me
                .completions
                .lock()
                .expect("reactor completions")
                .pop_front();
            let Some((token, answer)) = item else {
                return;
            };
            let idx = (token >> 32) as usize;
            let generation = token as u32;
            {
                let Some(conn) = self.slab.get_mut(idx).and_then(|s| s.as_mut()) else {
                    continue; // connection died while its run was in flight
                };
                if conn.generation != generation {
                    continue;
                }
                let Some(run) = conn.run.as_mut() else {
                    continue;
                };
                for (slot, reply) in answer.replies {
                    run.replies[slot] = Some(reply);
                }
                if answer.committer_closed {
                    // Nothing of the batch was applied and nothing more
                    // can be: answer the rest of the run, then hang up.
                    conn.closing = true;
                }
                run.outstanding -= 1;
                if run.outstanding > 0 {
                    continue;
                }
                self.submitted |= Self::drive(&self.shared, &self.me, idx, conn);
            }
            // Pump the replies out, re-arm reads, close if quiesced.
            self.process_input(idx);
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
                Some(c) if c.run.is_none()
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
    /// immediately, in-flight runs finish and flush their acks first, and a grace deadline force-closes stragglers.
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
                Some(c) if c.run.is_none() && !c.has_backlog()
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
    /// Dropping `EPOLLIN` while a run is in flight (or a backlog grows) is
    /// the backpressure mechanism; re-arming it resumes the flow.
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
        if self.slab[idx].take().is_some() {
            self.generations[idx] = self.generations[idx].wrapping_add(1);
            self.free.push(idx);
            self.shared.conns.fetch_sub(1, Ordering::SeqCst);
            // Dropping `conn` closes the fd; the kernel removes it from
            // the epoll interest set automatically.
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn one_request_turns_yield_alternately_and_others_never() {
        let mut yielded = false;
        let turns = [true, true, false, true, false, true, true];
        let got = turns.map(|handed_off| super::takes_yield(handed_off, &mut yielded));
        assert_eq!(got, [true, false, false, true, false, false, true]);
    }
}
