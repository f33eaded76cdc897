//! The client-facing request/response vocabulary and completion tickets.

use simspatial_geom::{Aabb, ElementId, Point3};
use std::sync::mpsc;
use std::time::Duration;

/// One client request: a small batch of queries of one family, or a batch
/// of element updates. The scheduler coalesces the queries of many
/// concurrent requests into the large per-dispatch batches the SoA kernel
/// is fastest at, then splits the results back per request; consecutive
/// write requests coalesce into one backend update application.
///
/// **Write-barrier ordering**: every write request is a barrier in the
/// admission order. A query admitted *before* a write sees the pre-write
/// dataset; a query admitted *after* it sees the post-write dataset —
/// exactly as if all requests ran serially in admission order
/// (differentially tested in `tests/service_stress.rs`).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Range queries: one result id list per box, in the order the index
    /// plan emits (identical to a serial `QueryEngine::range_collect`).
    Range(Vec<Aabb>),
    /// Range queries where only the per-box result counts are wanted —
    /// cheapest way to probe selectivity over the wire.
    RangeCount(Vec<Aabb>),
    /// kNN probes, each with its own `k`: the `k` nearest elements per
    /// probe in ascending `(distance, id)` order. Every probe of a query
    /// run, across concurrent requests, joins one kNN batch with its own `k`.
    Knn(Vec<(Point3, usize)>),
    /// A sparse geometry write: each `(id, aabb)` entry replaces that
    /// element's geometry with the box `aabb` (its new envelope — the
    /// paper's indexes approximate elements by bounding box, and the wire
    /// vocabulary does the same). A simulation tick ships its
    /// movers as one such batch, so the wire payload and the backend write
    /// work scale with the *moved* count, not the dataset size. Duplicate
    /// ids — within one request or across requests coalesced into the same
    /// application — resolve last-write-wins in admission order. Requires a
    /// writable backend ([`SubmitError::ReadOnly`] otherwise).
    StepDelta(Vec<(ElementId, Aabb)>),
    /// Inserts new elements with the given envelopes. The backend
    /// allocates fresh ids (ascending, in input order) and returns them in
    /// [`Response::Insert`]. A write barrier like `StepDelta`, and part of
    /// the same write run: writes admitted back to back reach the backend
    /// as one ordered batch, each id's writes resolved in admission order
    /// (a `StepDelta` entry for an id placed before the insert that
    /// allocates it is skipped). Requires a writable backend
    /// ([`SubmitError::ReadOnly`] otherwise).
    Insert(Vec<Aabb>),
    /// Removes elements by id. Removed ids are tombstoned: they never come
    /// back, later writes to them are skipped, and queries no longer see
    /// them. Unknown/duplicate ids are counted skipped, and a `StepDelta`
    /// entry the removal overrides in the same write run is too. A write
    /// barrier in the same write run as the writes around it. Requires a
    /// writable backend.
    Remove(Vec<ElementId>),
}

impl Request {
    /// Number of individual queries/probes/updates carried by this request.
    pub fn len(&self) -> usize {
        match self {
            Request::Range(qs) | Request::RangeCount(qs) => qs.len(),
            Request::Knn(ps) => ps.len(),
            Request::Insert(envs) => envs.len(),
            Request::StepDelta(moves) => moves.len(),
            Request::Remove(ids) => ids.len(),
        }
    }

    /// True when the request carries no queries or updates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for the write-path variants (`StepDelta`/`Insert`/`Remove`),
    /// which act as write barriers in the admission order.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::StepDelta(_) | Request::Insert(_) | Request::Remove(_)
        )
    }
}

/// How strongly a request's answer must be ordered against the write
/// barriers in flight around it.
///
/// Writes ignore this field — every write is always a barrier in the
/// admission order, and each write run that reaches the backend publishes
/// one new epoch. For reads it selects which dataset version answers:
///
/// * [`Consistency::Barrier`] (the default) is the pre-epoch semantics
///   and the differential oracle: the read runs in strict admission order
///   against the live dataset, paying for every write barrier ahead of it.
/// * [`Consistency::Snapshot`] answers from the **last
///   published epoch**: the scheduler hoists the read in front of any
///   write barriers queued in the same dispatch and runs it before them,
///   while live state still is that epoch. The answer
///   may be stale, but it is never torn — it equals the [`Barrier`]
///   answer evaluated at exactly the epoch the reply reports
///   (differentially tested in `tests/service_snapshot.rs`).
/// * [`Consistency::ReadYourWrites`] is `Snapshot` with a floor: the read
///   does not run until the published epoch reaches `min_epoch`. Pass the
///   [`Reply::epoch`] of your last acknowledged write to be guaranteed to
///   observe it (write acks carry the epoch that made the write visible).
///
/// [`Barrier`]: Consistency::Barrier
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Read the last published epoch; never waits on pending writes.
    Snapshot,
    /// Read a published epoch `>= min_epoch` — snapshot freshness floored
    /// at the submitter's last acknowledged write.
    ReadYourWrites {
        /// The lowest epoch this read may observe (inclusive).
        min_epoch: u64,
    },
    /// Strict admission-order serialization behind every write barrier.
    #[default]
    Barrier,
}

/// The response to one [`Request`], shape-matched per variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Per-box result id lists, parallel to `Request::Range`.
    Range(Vec<Vec<ElementId>>),
    /// Per-box result counts, parallel to `Request::RangeCount`.
    RangeCount(Vec<u64>),
    /// Per-probe `(id, distance)` lists, parallel to `Request::Knn`.
    Knn(Vec<Vec<(ElementId, f32)>>),
    /// Acknowledgement of a `Request::StepDelta`: the write barrier has
    /// been applied. Carries the number of entries the request held —
    /// entries with unknown ids or superseded by later duplicates are
    /// included here but counted as skipped in the authoritative
    /// dataset-wide totals, [`ServiceStats`](crate::ServiceStats)
    /// `updates_applied`/`updates_skipped`.
    StepDelta(u64),
    /// Acknowledgement of a `Request::Insert`: the ids the backend
    /// allocated, ascending, parallel to the request's envelopes.
    Insert(Vec<ElementId>),
    /// Acknowledgement of a `Request::Remove`: the number of id entries
    /// the request held (unknown/duplicate ids are counted skipped in
    /// [`ServiceStats`](crate::ServiceStats), not here).
    Remove(u64),
}

impl Response {
    /// The range result lists, if this is a `Range` response.
    pub fn into_range(self) -> Option<Vec<Vec<ElementId>>> {
        match self {
            Response::Range(r) => Some(r),
            _ => None,
        }
    }

    /// The per-box counts, if this is a `RangeCount` response.
    pub fn into_range_counts(self) -> Option<Vec<u64>> {
        match self {
            Response::RangeCount(c) => Some(c),
            _ => None,
        }
    }

    /// The kNN result lists, if this is a `Knn` response.
    pub fn into_knn(self) -> Option<Vec<Vec<(ElementId, f32)>>> {
        match self {
            Response::Knn(r) => Some(r),
            _ => None,
        }
    }

    /// The carried entry count, if this is a write acknowledgement
    /// (`StepDelta`, `Insert` or `Remove`; entries skipped as
    /// unknown/superseded are counted in
    /// [`ServiceStats`](crate::ServiceStats), not here).
    pub fn into_applied(self) -> Option<u64> {
        match self {
            Response::StepDelta(n) | Response::Remove(n) => Some(n),
            Response::Insert(ids) => Some(ids.len() as u64),
            _ => None,
        }
    }

    /// The allocated element ids, if this is an `Insert` response.
    pub fn into_inserted_ids(self) -> Option<Vec<ElementId>> {
        match self {
            Response::Insert(ids) => Some(ids),
            _ => None,
        }
    }
}

/// Why a submission was not accepted. Every variant hands the request back
/// so the caller can retry or reroute without cloning up front.
#[derive(Debug)]
pub enum SubmitError {
    /// The service has been shut down (or its dispatcher died).
    ShutDown(Request),
    /// The bounded intake queue is full (returned to a
    /// [`SubmitOptions::nonblocking`](crate::SubmitOptions::nonblocking)
    /// submit only — a blocking one waits instead). This is the
    /// backpressure signal: the client is producing faster than the
    /// service drains. The rejection carries the congestion gauges
    /// observed at rejection time, so a backoff (such as a network front
    /// end's retry hint) can scale to actual congestion.
    ///
    /// `Full` is the only rejection that is safe to resubmit blindly: the
    /// request was never admitted, so resubmitting cannot apply it twice.
    /// **An admitted write is never blindly retried**: every admitted
    /// write is a barrier in the admission order, and a ticket error (e.g.
    /// [`RecvError::DeadlineExceeded`] at completion time) does not mean
    /// the write was not applied — a resubmit could apply it twice,
    /// interleaved with other clients' writes.
    Full {
        /// The rejected request, handed back for retry.
        request: Request,
        /// Queue depth observed at rejection time (≈ `capacity`; can lag
        /// a concurrent drain by a few entries).
        depth: usize,
        /// The intake queue bound
        /// ([`ServiceConfig::queue_cap`](crate::ServiceConfig::queue_cap)).
        capacity: usize,
        /// High-water mark of the queue depth over the service lifetime —
        /// `high_water` pinned at `capacity` means sustained overload,
        /// not a burst.
        high_water: usize,
    },
    /// A write (`StepDelta`, `Insert` or `Remove`) to a backend with no
    /// write path (no shard rebuild function). Rejected at admission so no
    /// write ever reaches a backend that cannot apply it.
    ReadOnly(Request),
}

impl SubmitError {
    /// Takes the rejected request back out of the error.
    pub fn into_request(self) -> Request {
        match self {
            SubmitError::ShutDown(r) | SubmitError::ReadOnly(r) => r,
            SubmitError::Full { request, .. } => request,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShutDown(_) => write!(f, "service is shut down"),
            SubmitError::Full {
                depth,
                capacity,
                high_water,
                ..
            } => write!(
                f,
                "service intake queue is full ({depth}/{capacity}, high-water {high_water})"
            ),
            SubmitError::ReadOnly(_) => write!(f, "service backend is read-only"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a [`Ticket`] produced no response. Every admitted ticket completes
/// with exactly one outcome — a [`Response`] or one of these — on every
/// service exit path; a ticket never hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The service shut down before completing this request.
    ShutDown,
    /// A backend worker failed while serving this request and could not be
    /// recovered in a way that preserves the request's correctness: a dead
    /// shard overlapping a kNN probe, a write lost to a shard death, or a
    /// dispatcher-level backend panic that poisoned the service.
    WorkerFailed {
        /// The shard the failure is attributed to (0 for unsharded
        /// backends and service-level poisoning).
        shard: usize,
    },
    /// The request's deadline expired — either before dispatch (shed at
    /// admission, the backend never saw it) or by completion time (the
    /// work ran but the answer arrived too late to be useful).
    DeadlineExceeded,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::ShutDown => {
                write!(f, "service shut down before completing the request")
            }
            RecvError::WorkerFailed { shard } => {
                write!(
                    f,
                    "backend worker failed serving the request (shard {shard})"
                )
            }
            RecvError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A completed request outcome plus its measured submit→completion latency
/// and coverage metadata — the scheduler-side payload behind a [`Ticket`].
#[derive(Debug)]
pub(crate) struct Completion {
    pub result: Result<Response, RecvError>,
    pub latency: Duration,
    pub shards_skipped: u32,
    pub epoch: u64,
}

impl Completion {
    fn into_reply(self) -> Result<Reply, RecvError> {
        self.result.map(|response| Reply {
            response,
            latency: self.latency,
            shards_skipped: self.shards_skipped,
            epoch: self.epoch,
        })
    }
}

/// A full completion record: the response, its latency, and degradation
/// metadata. Returned by [`Ticket::recv_reply`] for callers that need to
/// know whether a successful range/count response has partial coverage.
#[derive(Debug)]
pub struct Reply {
    /// The response payload.
    pub response: Response,
    /// Submit→completion latency, measured by the scheduler on the
    /// monotonic clock: it includes queueing and dispatch, not the
    /// caller's time-to-redeem.
    pub latency: Duration,
    /// Dead shards skipped while serving this request (range/count only —
    /// nonzero means the result is a lower bound over the surviving
    /// shards, not the full dataset).
    pub shards_skipped: u32,
    /// The epoch this answer reflects. For reads: the published epoch the
    /// query ran against ([`Consistency::Snapshot`]/`ReadYourWrites`) or
    /// the live epoch at execution time ([`Consistency::Barrier`]). For
    /// writes: the epoch whose publication made this write visible — feed
    /// it back as `ReadYourWrites { min_epoch }` to observe your own
    /// write.
    pub epoch: u64,
}

/// An in-flight request's completion slot. Obtained from
/// [`ServiceHandle::submit_with`](crate::ServiceHandle::submit_with);
/// redeem it with [`Ticket::recv`]. Tickets are independent of the handle
/// that produced them, so a client can pipeline: submit several requests,
/// then collect.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Completion>,
}

impl Ticket {
    /// Blocks until the request completes. Errors if the service shuts
    /// down, a worker failure loses the request, or its deadline expires —
    /// never hangs: every admitted ticket is completed exactly once.
    pub fn recv(self) -> Result<Response, RecvError> {
        self.recv_reply().map(|r| r.response)
    }

    /// Blocks for the full completion record: the response, its
    /// submit→completion latency ([`Reply::latency`]) and partial-coverage
    /// metadata (see [`Reply::shards_skipped`]).
    pub fn recv_reply(self) -> Result<Reply, RecvError> {
        match self.rx.recv() {
            Ok(c) => c.into_reply(),
            Err(mpsc::RecvError) => Err(RecvError::ShutDown),
        }
    }

    /// Blocks at most `timeout` (measured here, on the caller's monotonic
    /// clock — independent of any service-side deadline on the request).
    /// `None` when the wait timed out with the request still in flight;
    /// the ticket stays redeemable afterwards.
    pub fn recv_deadline(&self, timeout: Duration) -> Option<Result<Response, RecvError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(c) => Some(c.result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(RecvError::ShutDown)),
        }
    }

    /// Non-blocking [`Ticket::recv_reply`]: `None` while the request is
    /// still in flight; the ticket stays redeemable afterwards.
    pub fn try_recv_reply(&self) -> Option<Result<Reply, RecvError>> {
        match self.rx.try_recv() {
            Ok(c) => Some(c.into_reply()),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(RecvError::ShutDown)),
        }
    }
}
