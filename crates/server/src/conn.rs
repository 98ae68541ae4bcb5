//! Connection-level protocol state.
//!
//! The run discipline: every complete frame already buffered is decoded
//! into one ordered [`Run`] ([`decode_run`]) — a flat program of requests
//! and batch barriers plus one reply slot per request — which the owning
//! reactor interprets ([`crate::server`]'s `advance`), and the replies are
//! encoded back in request order once every slot is answered.
//!
//! [`Conn`] is the reactor's per-connection state machine: receive/send
//! buffers with partial-write positions, the in-flight run, and the
//! bookkeeping (interest mask, idle clock, generation) the reactor needs
//! to drive it off readiness events.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::engine::WriteOp;
use crate::wire::{
    decode_frame, encode_response, parse_request, try_encode_multi_response, ReplOp, Request,
    Response,
};

/// A non-write request copied out of the receive buffer, so it outlives
/// the buffer while its run waits on a commit. (`PUT`/`DEL` become
/// [`WriteOp`]s, `PING` is answered at decode time and a `MULTI` is
/// flattened into its members, so none of them appears here.)
pub(crate) enum OwnedRequest {
    /// `GET key`.
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// `STATS`.
    Stats,
    /// `FLUSH` (fence).
    Flush,
    /// One replicated batch shipped from a primary, applied behind this
    /// server's own durability boundary.
    ReplBatch {
        /// Owning shard.
        shard: u32,
        /// Per-shard batch sequence number, echoed in the ack.
        seq: u64,
        /// The decoded redo ops.
        ops: Vec<WriteOp>,
    },
    /// `PROMOTE`: become a primary, refuse further replication.
    Promote,
    /// `REPL_HELLO`: a primary opening a replication connection announces
    /// its shard count for layout verification.
    ReplHello {
        /// The primary's shard count.
        shards: u32,
    },
}

/// One request's reply, written back on the connection in request order.
pub(crate) enum OwnedResponse {
    /// Success.
    Ok,
    /// `GET` hit.
    Value(Vec<u8>),
    /// Key absent.
    NotFound,
    /// Failed request.
    Err(String),
    /// Rendered stats body.
    Stats(String),
    /// `PING` reply.
    Pong,
    /// `REPL_BATCH` applied and durable on this side.
    ReplAck {
        /// The acknowledged shard.
        shard: u32,
        /// The acknowledged batch sequence number.
        seq: u64,
    },
}

/// Why a decode run stopped early.
pub(crate) enum Stop {
    /// A `SHUTDOWN` frame: finish the run, ack, trigger shutdown, close.
    Shutdown,
    /// Envelope error: the length prefix is garbage, the stream cannot
    /// resync. Finish the run, report, close.
    Envelope(String),
}

fn response_of(resp: &OwnedResponse) -> Response<'_> {
    match resp {
        OwnedResponse::Ok => Response::Ok,
        OwnedResponse::Value(v) => Response::Value(v),
        OwnedResponse::NotFound => Response::NotFound,
        OwnedResponse::Err(m) => Response::Err(m),
        OwnedResponse::Stats(s) => Response::Stats(s),
        OwnedResponse::Pong => Response::Pong,
        OwnedResponse::ReplAck { shard, seq } => Response::ReplAck {
            shard: *shard,
            seq: *seq,
        },
    }
}

/// How one decoded frame's replies are framed on the way back.
pub(crate) enum Frame {
    /// One reply slot, one response frame.
    Leaf,
    /// A `MULTI` of this many members: their reply slots, in order, travel
    /// as one `MULTI_BODY` response.
    Multi(usize),
}

/// One step of a run's program.
pub(crate) enum Step {
    /// Stage `op` for its shard's next write batch; the batch's commit
    /// answers reply slot `slot`.
    Write {
        /// Index into [`Run::replies`].
        slot: usize,
        /// The write.
        op: WriteOp,
    },
    /// Execute `req` and answer reply slot `slot`.
    Exec {
        /// Index into [`Run::replies`].
        slot: usize,
        /// The request.
        req: OwnedRequest,
    },
    /// A write-batch boundary with nothing to execute: the two ends of a
    /// `MULTI` body, so its writes form batches of their own.
    Barrier,
}

/// One ordered run decoded out of a receive buffer, and — while the run is
/// in flight — the interpreter's position in it. Inline answers (`PONG`,
/// body-error `ERR`) already sit in their reply slots; everything else is
/// a [`Step`] still to execute.
pub(crate) struct Run {
    /// Bytes of `rbuf` consumed by the decoded frames (drain these).
    pub(crate) consumed: usize,
    /// One entry per decoded frame, in request order.
    pub(crate) frames: Vec<Frame>,
    /// One slot per request, in request order (a `MULTI`'s members have
    /// slots of their own); `None` slots await execution.
    pub(crate) replies: Vec<Option<OwnedResponse>>,
    /// The requests not yet executed, in order.
    pub(crate) steps: VecDeque<Step>,
    /// Committer submissions handed off and not yet answered; the
    /// interpreter resumes when this returns to zero.
    pub(crate) outstanding: usize,
    /// Early-stop condition (`SHUTDOWN` frame or envelope error), if any.
    pub(crate) stop: Option<Stop>,
}

impl Run {
    /// Queue one non-`MULTI` request: `PING` is answered on the spot, a
    /// write becomes a [`Step::Write`], anything else a [`Step::Exec`].
    fn push(&mut self, req: &Request<'_>) {
        let slot = self.replies.len();
        let exec = |req| Step::Exec { slot, req };
        let step = match req {
            Request::Ping => {
                self.replies.push(Some(OwnedResponse::Pong));
                return;
            }
            Request::Put { key, value } => Step::Write {
                slot,
                op: WriteOp::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                },
            },
            Request::Del { key } => Step::Write {
                slot,
                op: WriteOp::Del { key: key.to_vec() },
            },
            Request::Get { key } => exec(OwnedRequest::Get { key: key.to_vec() }),
            Request::Stats => exec(OwnedRequest::Stats),
            Request::Flush => exec(OwnedRequest::Flush),
            Request::ReplBatch(rb) => exec(OwnedRequest::ReplBatch {
                shard: rb.shard,
                seq: rb.seq,
                ops: rb
                    .ops()
                    .map(|op| match op {
                        ReplOp::Put { key, value } => WriteOp::Put {
                            key: key.to_vec(),
                            value: value.to_vec(),
                        },
                        ReplOp::Del { key } => WriteOp::Del { key: key.to_vec() },
                    })
                    .collect(),
            }),
            Request::Promote => exec(OwnedRequest::Promote),
            Request::ReplHello { shards } => exec(OwnedRequest::ReplHello { shards: *shards }),
            Request::Multi(_) | Request::Shutdown => {
                unreachable!("decode_run flattens MULTI and stops at SHUTDOWN")
            }
        };
        self.steps.push_back(step);
        self.replies.push(None);
    }

    /// Encode the finished run's replies, in request order.
    pub(crate) fn encode_replies(&self, out: &mut Vec<u8>) {
        let mut replies = self
            .replies
            .iter()
            .map(|r| response_of(r.as_ref().expect("finished run: every slot answered")));
        for frame in &self.frames {
            match frame {
                Frame::Leaf => {
                    encode_response(out, &replies.next().expect("a slot per leaf frame"));
                }
                Frame::Multi(n) => {
                    let body: Vec<Response<'_>> = replies.by_ref().take(*n).collect();
                    // A MULTI of GETs can fan out past MAX_FRAME even though
                    // the request fit; degrade to an ERR frame (the batch's
                    // writes are already durable — only the reply couldn't
                    // be framed).
                    if !try_encode_multi_response(out, &body) {
                        encode_response(out, &Response::Err("MULTI response exceeds frame limit"));
                    }
                }
            }
        }
    }
}

/// Decode EVERY complete frame already buffered into one ordered run —
/// this is the pipelining: a client that streamed N requests gets them
/// executed as a unit (writes group-committed) instead of N round trips.
/// A `MULTI` body is flattened into the same program between two barriers.
/// Incomplete trailing bytes are left untouched (`consumed` stops before
/// them); fragmentation at any byte boundary only delays the frame until
/// its last byte arrives.
pub(crate) fn decode_run(rbuf: &[u8]) -> Run {
    let mut run = Run {
        consumed: 0,
        frames: Vec::new(),
        replies: Vec::new(),
        steps: VecDeque::new(),
        outstanding: 0,
        stop: None,
    };
    loop {
        let frame = match decode_frame(&rbuf[run.consumed..]) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(e) => {
                debug_assert!(e.is_envelope());
                run.stop = Some(Stop::Envelope(e.to_string()));
                break;
            }
        };
        run.consumed += frame.consumed;
        match parse_request(&frame) {
            Ok(Request::Shutdown) => {
                run.stop = Some(Stop::Shutdown);
                break;
            }
            Ok(Request::Multi(body)) => {
                run.frames.push(Frame::Multi(body.count() as usize));
                run.steps.push_back(Step::Barrier);
                for req in body.requests() {
                    run.push(&req);
                }
                run.steps.push_back(Step::Barrier);
            }
            Ok(req) => {
                run.frames.push(Frame::Leaf);
                run.push(&req);
            }
            Err(e) => {
                // Body error: the frame boundary is known — answer ERR
                // in place and keep the stream in sync.
                debug_assert!(!e.is_envelope());
                run.frames.push(Frame::Leaf);
                run.replies.push(Some(OwnedResponse::Err(e.to_string())));
            }
        }
    }
    run
}

// ---------------------------------------------------------------------------
// Reactor-side per-connection state
// ---------------------------------------------------------------------------

/// Once the send buffer backs up past this, read interest is dropped until
/// the peer drains it — flow control by readiness, not by buffering.
pub(crate) const WBUF_HIGH_WATER: usize = 256 * 1024;

/// Reactor-owned state for one client socket.
pub(crate) struct Conn {
    /// The nonblocking socket.
    pub(crate) stream: TcpStream,
    /// Bytes received, not yet decoded.
    pub(crate) rbuf: Vec<u8>,
    /// Bytes encoded, not yet fully written.
    pub(crate) wbuf: Vec<u8>,
    /// How far into `wbuf` the kernel has accepted (partial writes).
    pub(crate) wpos: usize,
    /// The run in flight, if any. At most one per connection, and reads
    /// are disarmed while it is — that keeps ordering structural, and it is
    /// the backpressure: a client with a run outstanding is not read from.
    pub(crate) run: Option<Run>,
    /// Flush `wbuf`, then close (set by `SHUTDOWN` ack / envelope error).
    pub(crate) closing: bool,
    /// Peer sent FIN: stop arming reads, close once quiesced.
    pub(crate) peer_eof: bool,
    /// Last time bytes moved on this connection (idle-timeout clock).
    pub(crate) last_activity: Instant,
    /// The epoll interest mask currently registered for this socket.
    pub(crate) interest: u32,
    /// Slab generation, embedded in the epoll token so stale events and
    /// stale committer completions for a recycled slot are discarded.
    pub(crate) generation: u32,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, generation: u32, now: Instant) -> Conn {
        Conn {
            stream,
            rbuf: Vec::with_capacity(4096),
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            run: None,
            closing: false,
            peer_eof: false,
            last_activity: now,
            interest: 0,
            generation,
        }
    }

    /// Unwritten response bytes still pending.
    pub(crate) fn has_backlog(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Pump `wbuf` into the socket until it would block. Returns `false`
    /// on a fatal socket error (caller closes the connection).
    pub(crate) fn pump_writes(&mut self, now: Instant) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }

    /// Drain readable bytes into `rbuf` until the socket would block (or a
    /// cap per round, to keep one chatty peer from starving the rest),
    /// reading through `chunk`, the reactor's one read buffer.
    /// Returns `Ok(true)` if any bytes arrived, `Ok(false)` if none;
    /// `Err(())` means the socket is dead.
    pub(crate) fn pump_reads(&mut self, now: Instant, chunk: &mut [u8]) -> Result<bool, ()> {
        const ROUND_CAP: usize = 64 * 1024;
        let mut got = 0usize;
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = now;
                    got += n;
                    if got >= ROUND_CAP {
                        // Level-triggered epoll re-reports the remainder.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(got > 0)
    }

    /// The interest mask this connection should be registered with right
    /// now: reads only with no run in flight (and not closing/EOF/backpressured),
    /// writes only while a backlog exists.
    pub(crate) fn desired_interest(&self) -> u32 {
        let mut want = 0;
        if self.has_backlog() {
            want |= crate::poll::EPOLLOUT;
        }
        let read_ok = self.run.is_none()
            && !self.closing
            && !self.peer_eof
            && self.wbuf.len().saturating_sub(self.wpos) < WBUF_HIGH_WATER;
        if read_ok {
            want |= crate::poll::EPOLLIN;
        }
        want
    }

    /// Whether the connection has fully quiesced and should be closed:
    /// peer is gone (or we are closing) and nothing remains to execute or
    /// flush.
    pub(crate) fn drained(&self) -> bool {
        let no_work = self.run.is_none() && !self.has_backlog();
        no_work && (self.closing || self.peer_eof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_multi_request, encode_request, MAX_FRAME};

    fn put(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request(&mut out, &Request::Put { key, value });
        out
    }

    #[test]
    fn decode_run_batches_all_complete_frames() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Ping);
        buf.extend_from_slice(&put(b"k1", b"v1"));
        encode_request(&mut buf, &Request::Get { key: b"k1" });
        let tail_start = buf.len();
        // Trailing partial frame: must be left unconsumed.
        buf.extend_from_slice(&put(b"k2", b"v2")[..3]);

        let run = decode_run(&buf);
        assert_eq!(run.consumed, tail_start);
        assert_eq!(run.replies.len(), 3);
        assert!(matches!(run.replies[0], Some(OwnedResponse::Pong)));
        assert!(run.replies[1].is_none());
        assert!(run.replies[2].is_none());
        let slots: Vec<usize> = run
            .steps
            .iter()
            .map(|s| match s {
                Step::Write { slot, .. } | Step::Exec { slot, .. } => *slot,
                Step::Barrier => panic!("no MULTI in this run"),
            })
            .collect();
        assert_eq!(slots, vec![1, 2]);
        assert!(run.stop.is_none());
    }

    #[test]
    fn decode_run_stops_at_shutdown_frame() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&put(b"k", b"v"));
        encode_request(&mut buf, &Request::Shutdown);
        // Frames after SHUTDOWN are not decoded (the connection closes).
        encode_request(&mut buf, &Request::Ping);

        let run = decode_run(&buf);
        assert!(matches!(run.stop, Some(Stop::Shutdown)));
        assert_eq!(run.replies.len(), 1);
        assert_eq!(run.steps.len(), 1);
    }

    #[test]
    fn decode_run_envelope_error_stops_without_consuming_garbage() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Ping);
        let good = buf.len();
        // Oversized length prefix: an envelope error.
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        buf.push(0x01);

        let run = decode_run(&buf);
        assert_eq!(run.consumed, good, "garbage stays unconsumed");
        assert!(matches!(run.stop, Some(Stop::Envelope(_))));
        assert!(matches!(run.replies[0], Some(OwnedResponse::Pong)));
    }

    #[test]
    fn decode_run_reassembles_byte_at_a_time_delivery() {
        // The reactor ingests arbitrary fragments; a run must appear
        // exactly when the last byte of a frame lands, never earlier,
        // and decoded order must match send order.
        let mut stream = Vec::new();
        stream.extend_from_slice(&put(b"alpha", b"1"));
        let inner = [
            Request::Put {
                key: b"beta",
                value: b"2",
            },
            Request::Del { key: b"alpha" },
        ];
        encode_multi_request(&mut stream, &inner);
        stream.extend_from_slice(&put(b"gamma", b"3"));

        let mut rbuf = Vec::new();
        let mut decoded = 0usize;
        for (i, b) in stream.iter().enumerate() {
            rbuf.push(*b);
            let run = decode_run(&rbuf);
            if run.consumed > 0 {
                rbuf.drain(..run.consumed);
                decoded += run.frames.len();
                if let [Frame::Multi(n)] = run.frames[..] {
                    // Flattened between two barriers, a slot per member.
                    assert_eq!((n, run.replies.len(), run.steps.len()), (2, 2, 4));
                    assert!(matches!(run.steps.front(), Some(Step::Barrier)));
                    assert!(matches!(run.steps.back(), Some(Step::Barrier)));
                }
                assert!(run.stop.is_none(), "no stop at byte {i}");
            }
        }
        assert!(rbuf.is_empty(), "every byte consumed at the end");
        assert_eq!(decoded, 3, "PUT + MULTI + PUT all decoded");
    }

    #[test]
    fn conn_desired_interest_follows_state() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let now = Instant::now();
        let mut conn = Conn::new(stream, 1, now);

        assert_eq!(conn.desired_interest(), crate::poll::EPOLLIN);

        conn.run = Some(decode_run(&[]));
        assert_eq!(conn.desired_interest(), 0, "reads disarmed while running");

        conn.run = None;
        conn.wbuf = vec![0u8; 8];
        assert_eq!(
            conn.desired_interest(),
            crate::poll::EPOLLIN | crate::poll::EPOLLOUT
        );

        conn.wbuf = vec![0u8; WBUF_HIGH_WATER + 1];
        assert_eq!(
            conn.desired_interest(),
            crate::poll::EPOLLOUT,
            "send backlog past high water drops read interest"
        );

        conn.wbuf.clear();
        conn.closing = true;
        assert_eq!(conn.desired_interest(), 0);
        assert!(conn.drained());
    }
}
