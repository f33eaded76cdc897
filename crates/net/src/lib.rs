//! # simspatial-net
//!
//! The TCP front end: [`simspatial_service`]'s concurrent query service,
//! served to remote clients over a length-prefixed binary protocol —
//! `std::net` and threads only, no async runtime, matching the
//! workspace's offline/vendored dependency policy.
//!
//! Three layers:
//!
//! * **[`wire`]** — the versioned frame codec. Every
//!   [`Request`](simspatial_service::Request) variant
//!   (`Range`/`RangeCount`/`Knn`/`StepDelta`/`Insert`/`Remove`), every
//!   response shape, and every typed failure
//!   (`ShutDown`, `WorkerFailed`, `DeadlineExceeded`, `ReadOnly`, plus
//!   `shards_skipped` degradation flags) has a binary encoding; decode
//!   is strict (max frame size, max items per request, exact-length
//!   validation) so a malformed or hostile frame fails typed without
//!   unbounded allocation and terminates only its own connection.
//! * **[`NetServer`]** — a multiplexed server: one acceptor and a
//!   reader/writer thread pair per connection, no other thread, so a
//!   client can pipeline many in-flight requests per connection under
//!   client-chosen correlation ids. Responses may return out of order
//!   *between* connections while the service's write-barrier semantics
//!   hold: each tenant's requests are admitted in arrival order, each
//!   connection's replies leave in admission order, and the in-process
//!   dispatcher serializes barriers exactly as a serial run would.
//!   Admission is **multi-tenant**: tenants declare themselves at
//!   handshake; a deficit-round-robin sweep, run by readers as they stage
//!   and by writers as they redeem, drains per-tenant staging queues by
//!   weight, per-tenant in-flight caps bound any one tenant's unredeemed
//!   tickets, and a full staging queue sheds load as a protocol
//!   `Retry` frame whose hint scales with observed congestion. Each
//!   request carries a consistency byte (wire version 2): per-request
//!   `Barrier`/`Snapshot`/`ReadYourWrites`, or the tenant's configured
//!   default ([`TenantSpec::with_consistency`]); every reply reports
//!   the epoch the service answered at.
//! * **[`NetClient`]** — a minimal blocking client used by the tests,
//!   `benchmark/` and the examples: pipelined `enqueue`/`flush`/
//!   `recv_msg`, or the synchronous [`NetClient::call`], whose outcome
//!   may be a server `Retry` hint to honour before resending.
//!
//! ## Quick start
//!
//! ```
//! use simspatial_datagen::ElementSoupBuilder;
//! use simspatial_geom::Point3;
//! use simspatial_index::{GridConfig, ShardedEngine, UniformGrid};
//! use simspatial_net::{CallOutcome, NetClient, NetConfig, NetServer};
//! use simspatial_service::{Request, ServiceConfig, ShardedBackend, SpatialService};
//!
//! let data = ElementSoupBuilder::new().count(500).seed(3).build();
//! let backend = ShardedBackend::spawn(ShardedEngine::build(data.elements(), 1, |d| {
//!     UniformGrid::build(d, GridConfig::auto(d))
//! }));
//! let service = SpatialService::spawn(backend, ServiceConfig::default());
//! let server = NetServer::bind(service, "127.0.0.1:0", NetConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr(), "tenant-a").unwrap();
//! let outcome = client
//!     .call(&Request::Knn(vec![(Point3::new(10.0, 10.0, 10.0), 5)]))
//!     .unwrap();
//! match outcome {
//!     CallOutcome::Reply { response, .. } => {
//!         assert_eq!(response.into_knn().unwrap()[0].len(), 5);
//!     }
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! drop(client);
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! assert_eq!(stats.tenants.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{CallOutcome, NetClient};
pub use server::{NetConfig, NetServer, TenantSpec};
pub use wire::{DecodeLimits, FatalCode, RequestError, WireError};

/// A client-side transport/protocol failure.
#[derive(Debug)]
pub enum NetError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer sent bytes that violate the protocol.
    Wire(WireError),
    /// The server sent a connection-level `Fatal` frame and closed.
    Fatal {
        /// The typed reason.
        code: FatalCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The connection closed cleanly while a response was still expected.
    Closed,
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<wire::FrameReadError> for NetError {
    fn from(e: wire::FrameReadError) -> Self {
        match e {
            wire::FrameReadError::Io(e) => NetError::Io(e),
            wire::FrameReadError::Wire(e) => NetError::Wire(e),
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Fatal { code, message } => {
                write!(f, "server closed the connection: {code:?}: {message}")
            }
            NetError::Closed => write!(f, "connection closed with responses outstanding"),
        }
    }
}

impl std::error::Error for NetError {}
