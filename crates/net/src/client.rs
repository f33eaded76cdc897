//! A minimal blocking client for the wire protocol.
//!
//! [`NetClient`] supports two styles:
//!
//! * **Synchronous** — [`NetClient::call`] sends one request at the
//!   tenant's default consistency and blocks for its outcome: a reply, a
//!   typed error, or a `Retry` hint carrying the congestion-scaled backoff
//!   the server suggests before resending.
//! * **Pipelined** — [`NetClient::enqueue`] (tenant default) and
//!   [`NetClient::enqueue_at`] (explicit consistency) stack any number of
//!   requests without flushing, [`NetClient::flush`] ships them in one
//!   syscall burst, and [`NetClient::recv_msg`] drains responses in
//!   whatever order the server produced them, matched by correlation id.
//!
//! The client is deliberately thread-unaware: one `NetClient` per
//! connection per thread. Open several connections for concurrency —
//! that is the server's multiplexing model (`benchmark/`'s `net_read`
//! workload drives one pipelined connection).

use crate::wire::{self, DecodeLimits, ServerMsg};
use crate::NetError;
use simspatial_service::{Consistency, Request, Response};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The outcome of one synchronous [`NetClient::call`].
#[derive(Debug, Clone, PartialEq)]
pub enum CallOutcome {
    /// The request completed.
    Reply {
        /// The response payload.
        response: Response,
        /// Dead shards skipped serving it (partial coverage when > 0).
        shards_skipped: u32,
        /// The epoch the service reported: the published epoch a
        /// snapshot read ran against, or — for a write — the epoch whose
        /// publication made it visible. Feed it back as
        /// `Consistency::ReadYourWrites { min_epoch }` to guarantee a
        /// later read observes this request.
        epoch: u64,
    },
    /// The request was admitted but failed typed.
    Rejected(wire::RequestError),
    /// The request was shed before admission; retry after the hint.
    Retry {
        /// Server-suggested backoff, scaled by its observed congestion.
        after: Duration,
        /// Service intake queue depth at shed time.
        depth: u32,
        /// Service intake queue capacity.
        capacity: u32,
    },
}

/// One blocking connection to a [`NetServer`](crate::NetServer).
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_corr: u64,
    buf: Vec<u8>,
    frame: Vec<u8>,
    max_reply_frame: usize,
    server_max_frame: u32,
    server_max_items: u32,
}

impl NetClient {
    /// Connects, performs the `Hello` handshake declaring `tenant`, and
    /// returns a ready client.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone()?;
        let mut client = NetClient {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            next_corr: 1,
            buf: Vec::new(),
            frame: Vec::new(),
            max_reply_frame: 64 << 20,
            server_max_frame: 0,
            server_max_items: 0,
        };
        wire::encode_hello(&mut client.buf, tenant);
        wire::write_frame(&mut client.writer, &client.buf)?;
        client.writer.flush()?;
        match client.recv_msg()? {
            ServerMsg::HelloAck {
                max_frame,
                max_items,
                ..
            } => {
                client.server_max_frame = max_frame;
                client.server_max_items = max_items;
                Ok(client)
            }
            other => Err(unexpected(other)),
        }
    }

    /// The largest frame the client will accept from the server.
    /// Responses are server-sized (a range query may return many ids),
    /// so this defaults much larger (64 MiB) than the server's
    /// client-frame limit.
    pub fn set_max_reply_frame(&mut self, bytes: usize) {
        self.max_reply_frame = bytes;
    }

    /// The server's advertised per-frame limit for client requests.
    pub fn server_max_frame(&self) -> u32 {
        self.server_max_frame
    }

    /// The server's advertised per-request item limit.
    pub fn server_max_items(&self) -> u32 {
        self.server_max_items
    }

    /// Queues one request without flushing, at the tenant-default
    /// consistency; returns its correlation id. Pair with
    /// [`NetClient::flush`] and [`NetClient::recv_msg`] to pipeline many
    /// in-flight requests on one connection.
    pub fn enqueue(&mut self, request: &Request) -> Result<u64, NetError> {
        self.enqueue_at(request, None)
    }

    /// [`NetClient::enqueue`] under an explicit consistency mode (`None`
    /// sends the tenant-default byte, letting the server resolve the mode
    /// from the connection's tenant profile).
    pub fn enqueue_at(
        &mut self,
        request: &Request,
        consistency: Option<Consistency>,
    ) -> Result<u64, NetError> {
        let corr = self.next_corr;
        self.next_corr += 1;
        wire::encode_request(&mut self.buf, corr, consistency, request);
        wire::write_frame(&mut self.writer, &self.buf)?;
        Ok(corr)
    }

    /// Ships everything queued by [`NetClient::enqueue`].
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Blocks for the next server message (any correlation id). A
    /// `Fatal` frame or a close with responses outstanding surfaces as
    /// an error — the connection is unusable afterwards.
    pub fn recv_msg(&mut self) -> Result<ServerMsg, NetError> {
        if !wire::read_frame(&mut self.reader, self.max_reply_frame, &mut self.frame)? {
            return Err(NetError::Closed);
        }
        match wire::decode_server_msg(&self.frame)? {
            ServerMsg::Fatal { code, message } => Err(NetError::Fatal { code, message }),
            msg => Ok(msg),
        }
    }

    /// Sends one request at the tenant-default consistency and blocks for
    /// its outcome. Assumes no other requests are outstanding on this
    /// connection (use the pipelined API otherwise): a response with a
    /// different correlation id is a protocol error.
    pub fn call(&mut self, request: &Request) -> Result<CallOutcome, NetError> {
        let corr = self.enqueue(request)?;
        self.flush()?;
        match self.recv_msg()? {
            ServerMsg::Reply {
                corr: c,
                shards_skipped,
                epoch,
                response,
            } if c == corr => Ok(CallOutcome::Reply {
                response,
                shards_skipped,
                epoch,
            }),
            ServerMsg::Error { corr: c, error } if c == corr => Ok(CallOutcome::Rejected(error)),
            ServerMsg::Retry {
                corr: c,
                after,
                depth,
                capacity,
            } if c == corr => Ok(CallOutcome::Retry {
                after,
                depth,
                capacity,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Requests a stats snapshot; returns the server's JSON payload
    /// (`ServiceStats::to_json`, including per-tenant counters).
    pub fn request_stats(&mut self) -> Result<String, NetError> {
        let corr = self.next_corr;
        self.next_corr += 1;
        wire::encode_stats(&mut self.buf, corr);
        wire::write_frame(&mut self.writer, &self.buf)?;
        self.writer.flush()?;
        match self.recv_msg()? {
            ServerMsg::StatsReply { corr: c, json } if c == corr => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    /// The decode limits the server advertised at handshake, for
    /// callers that want to pre-validate requests client-side.
    pub fn advertised_limits(&self) -> DecodeLimits {
        DecodeLimits {
            max_frame: self.server_max_frame as usize,
            max_items: self.server_max_items as usize,
        }
    }
}

fn unexpected(msg: ServerMsg) -> NetError {
    let _ = msg;
    NetError::Wire(wire::WireError::Protocol(
        "unexpected message for this call",
    ))
}
