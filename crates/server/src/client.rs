//! A blocking wire-protocol client: one TCP connection, closed-loop
//! request/response. Used by the load generator and the integration tests.
//!
//! Every reply is read through one loop: the typed calls (`put`, `get`,
//! ...) look at the frame where it lies in the read buffer, so a GET's
//! value is copied once, into the caller's vector; [`Client::read_reply`]
//! returns an owned [`Reply`], for [`Client::pipeline`] and for frames
//! sent with [`Client::send_raw`].

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::wire::{
    decode_frame, encode_multi_request, encode_repl_batch, encode_request, parse_response, ReplOp,
    Request, Response, WireError,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error (includes the peer closing mid-response).
    Io(std::io::Error),
    /// The server sent bytes the codec rejects.
    Wire(WireError),
    /// The server answered `ERR` with this message.
    Remote(String),
    /// The server answered `BUSY` (queue or connection limit saturated).
    Busy,
    /// The server answered with a response that does not fit the request
    /// (e.g. `PONG` to a `PUT`).
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote(m) => write!(f, "server error: {m}"),
            ClientError::Busy => write!(f, "server busy"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Bytes one socket read asks for.
const READ_CHUNK: usize = 16 * 1024;

/// A blocking connection to an `spp-server`.
pub struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Every socket read lands here first: allocated and zeroed once per
    /// connection, not per read.
    chunk: Box<[u8]>,
}

impl Client {
    /// Connect once.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            rbuf: Vec::with_capacity(4096),
            wbuf: Vec::with_capacity(4096),
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
        })
    }

    /// Connect with retries until `deadline` elapses — for racing a server
    /// that is still binding its listener.
    ///
    /// # Errors
    ///
    /// The last connection error once the deadline passes.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Copy,
        deadline: Duration,
    ) -> std::io::Result<Client> {
        let start = Instant::now();
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Encode one request frame with `encode`, send it and read the
    /// reply: `ERR` and `BUSY` are errors, anything else goes to `on_resp`.
    fn exchange<R>(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
        on_resp: impl FnOnce(Response<'_>) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        self.wbuf.clear();
        encode(&mut self.wbuf);
        self.stream.write_all(&self.wbuf)?;
        self.read_frame(|resp| match resp {
            Response::Err(m) => Err(ClientError::Remote(m.to_string())),
            Response::Busy => Err(ClientError::Busy),
            other => on_resp(other),
        })
    }

    fn roundtrip<R>(
        &mut self,
        req: &Request<'_>,
        on_resp: impl FnOnce(Response<'_>) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        self.exchange(|buf| encode_request(buf, req), on_resp)
    }

    /// Pull bytes until one complete response frame is buffered, hand it
    /// to `on_resp` as it lies in the buffer (a GET's value is copied out
    /// once, by the caller), then drop the frame. A leftover tail (the
    /// server never pipelines, but a malicious peer could) is kept for the
    /// next call.
    fn read_frame<R>(
        &mut self,
        on_resp: impl FnOnce(Response<'_>) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        loop {
            if let Some(frame) = decode_frame(&self.rbuf)? {
                let consumed = frame.consumed;
                let result = parse_response(&frame)
                    .map_err(ClientError::from)
                    .and_then(on_resp);
                self.rbuf.drain(..consumed);
                return result;
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                let eof = std::io::ErrorKind::UnexpectedEof;
                let why = "server closed connection mid-response";
                return Err(ClientError::Io(std::io::Error::new(eof, why)));
            }
            self.rbuf.extend_from_slice(&self.chunk[..n]);
        }
    }

    /// `PUT`: durable once this returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; [`ClientError::Busy`] is retryable.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        self.roundtrip(&Request::Put { key, value }, |resp| match resp {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("PUT wants OK")),
        })
    }

    /// `GET`: appends the value to `out` on a hit and returns whether the
    /// key existed.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn get(&mut self, key: &[u8], out: &mut Vec<u8>) -> Result<bool, ClientError> {
        self.roundtrip(&Request::Get { key }, |resp| match resp {
            Response::Value(v) => {
                out.extend_from_slice(v);
                Ok(true)
            }
            Response::NotFound => Ok(false),
            _ => Err(ClientError::Unexpected("GET wants VALUE or NOT_FOUND")),
        })
    }

    /// `DEL`: returns whether the key existed.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn del(&mut self, key: &[u8]) -> Result<bool, ClientError> {
        self.roundtrip(&Request::Del { key }, |resp| match resp {
            Response::Ok => Ok(true),
            Response::NotFound => Ok(false),
            _ => Err(ClientError::Unexpected("DEL wants OK or NOT_FOUND")),
        })
    }

    /// `STATS`: the engine's `key=value` introspection body.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.roundtrip(&Request::Stats, |resp| match resp {
            Response::Stats(s) => Ok(s.to_string()),
            _ => Err(ClientError::Unexpected("STATS wants STATS_BODY")),
        })
    }

    /// `FLUSH`: drain outstanding device writes.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Flush, |resp| match resp {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("FLUSH wants OK")),
        })
    }

    /// `PING`: liveness probe.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Ping, |resp| match resp {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("PING wants PONG")),
        })
    }

    /// `SHUTDOWN`: acked with `OK`, then the server quiesces.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Shutdown, |resp| match resp {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("SHUTDOWN wants OK")),
        })
    }

    /// `MULTI`: one atomic batch frame. All `PUT`/`DEL`s in the batch
    /// commit under a single durability boundary — either every write in
    /// the batch survives a crash or none does. Replies are index-aligned
    /// with `reqs`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] if the server rejected the whole batch
    /// (retryable); [`ClientError`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics (in the encoder) on an empty batch, a nested `Multi`, a
    /// `Shutdown`, or an oversized frame.
    pub fn multi(&mut self, reqs: &[Request<'_>]) -> Result<Vec<Reply>, ClientError> {
        let encode = |buf: &mut Vec<u8>| encode_multi_request(buf, reqs);
        self.exchange(encode, |resp| match resp {
            Response::Multi(mb) if usize::from(mb.count()) == reqs.len() => {
                Ok(mb.responses().map(|r| reply_of(&r)).collect())
            }
            Response::Multi(_) => Err(ClientError::Unexpected("MULTI reply count mismatch")),
            _ => Err(ClientError::Unexpected("MULTI wants MULTI_BODY")),
        })
    }

    /// Pipelined send: write every request back-to-back without waiting,
    /// then collect exactly one reply per request, in order. Unlike the
    /// closed-loop helpers this surfaces per-request `BUSY`/`ERR` as
    /// [`Reply`] values rather than errors, because partial success is
    /// meaningful under backpressure.
    ///
    /// Do not include `SHUTDOWN` (the server closes the connection before
    /// answering later requests).
    ///
    /// # Errors
    ///
    /// Socket or codec failures only.
    pub fn pipeline(&mut self, reqs: &[Request<'_>]) -> Result<Vec<Reply>, ClientError> {
        self.wbuf.clear();
        for r in reqs {
            encode_request(&mut self.wbuf, r);
        }
        self.stream.write_all(&self.wbuf)?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in 0..reqs.len() {
            out.push(self.read_reply()?);
        }
        Ok(out)
    }

    /// `REPL_BATCH`: ship one replicated write batch for `shard` with
    /// sequence number `seq`, blocking until the backup's `REPL_ACK` —
    /// i.e. until the batch is durable on the backup. Returns the echoed
    /// `(shard, seq)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; a promoted backup answers `ERR`, surfaced as
    /// [`ClientError::Remote`].
    ///
    /// # Panics
    ///
    /// Panics (in the encoder) on an empty or oversized batch.
    pub fn repl_batch(
        &mut self,
        shard: u32,
        seq: u64,
        ops: &[ReplOp<'_>],
    ) -> Result<(u32, u64), ClientError> {
        let encode = |buf: &mut Vec<u8>| encode_repl_batch(buf, shard, seq, ops);
        self.exchange(encode, |resp| match resp {
            Response::ReplAck { shard, seq } => Ok((shard, seq)),
            _ => Err(ClientError::Unexpected("REPL_BATCH wants REPL_ACK")),
        })
    }

    /// `REPL_HELLO`: announce this primary's shard count on a replication
    /// connection. The backup acks `OK` only when its own layout matches,
    /// refusing cross-layout replication before any batch ships.
    ///
    /// # Errors
    ///
    /// [`ClientError`]; a mismatch (or a promoted backup) answers `ERR`,
    /// surfaced as [`ClientError::Remote`].
    pub fn repl_hello(&mut self, shards: u32) -> Result<(), ClientError> {
        self.roundtrip(&Request::ReplHello { shards }, |resp| match resp {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("REPL_HELLO wants OK")),
        })
    }

    /// `PROMOTE`: flip a backup into a primary. Acked with `OK` after
    /// every shard has been fenced.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn promote(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Promote, |resp| match resp {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("PROMOTE wants OK")),
        })
    }

    /// Send raw bytes, bypassing the codec — for malformed-frame tests.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read one response frame into an owned [`Reply`]: the next reply
    /// of a [`Client::pipeline`], or the answer to [`Client::send_raw`].
    /// `ERR` and `BUSY` are replies here, not errors.
    ///
    /// # Errors
    ///
    /// Socket or codec failures only.
    pub fn read_reply(&mut self) -> Result<Reply, ClientError> {
        self.read_frame(|resp| Ok(reply_of(&resp)))
    }
}

/// An owned server reply, as returned by [`Client::multi`],
/// [`Client::pipeline`] and [`Client::read_reply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `OK` — for a write, durable before this was sent.
    Ok,
    /// `VALUE` with the bytes.
    Value(Vec<u8>),
    /// `NOT_FOUND`.
    NotFound,
    /// `ERR` with its message.
    Err(String),
    /// `BUSY` — retryable backpressure.
    Busy,
    /// `STATS_BODY` text.
    Stats(String),
    /// `PONG`.
    Pong,
    /// `MULTI_BODY`: one reply per batched request, in order.
    Multi(Vec<Reply>),
    /// `REPL_ACK`: the batch is durable on the backup.
    ReplAck {
        /// The acknowledged shard.
        shard: u32,
        /// The acknowledged batch sequence number.
        seq: u64,
    },
}

fn reply_of(resp: &Response<'_>) -> Reply {
    match resp {
        Response::Ok => Reply::Ok,
        Response::Value(v) => Reply::Value(v.to_vec()),
        Response::NotFound => Reply::NotFound,
        Response::Err(m) => Reply::Err(m.to_string()),
        Response::Busy => Reply::Busy,
        Response::Stats(s) => Reply::Stats(s.to_string()),
        Response::Pong => Reply::Pong,
        Response::Multi(mb) => Reply::Multi(mb.responses().map(|r| reply_of(&r)).collect()),
        Response::ReplAck { shard, seq } => Reply::ReplAck {
            shard: *shard,
            seq: *seq,
        },
    }
}
