//! # simspatial-service
//!
//! The concurrent query service: many independent clients, one spatial
//! dataset, kernel-sized batches.
//!
//! Everything below this crate is batch-first but single-caller: a
//! [`QueryEngine`](simspatial_index::QueryEngine) or
//! [`ShardedEngine`](simspatial_index::ShardedEngine) executes one batch
//! at a time through `&mut self`. The paper's target workload, though, is
//! *many* clients issuing dense range/kNN probes against one dataset — and
//! the roadmap's north star is serving heavy concurrent traffic. This
//! crate is that front door:
//!
//! * **[`ServiceHandle`]** — cloneable, thread-safe submission: clients
//!   send [`Request`]s (`Range`, `RangeCount`, `Knn` with per-probe `k`)
//!   into a **bounded** intake queue and redeem a [`Ticket`] for the
//!   response. One entry point, [`ServiceHandle::submit_with`], takes the
//!   per-request [`SubmitOptions`] (consistency, deadline, nonblocking —
//!   the wire header's fields): a blocking submit applies backpressure, a
//!   nonblocking one surfaces `Full` for open-loop clients. Implemented
//!   entirely on `std` MPSC channels and
//!   worker threads — no async runtime, matching the workspace's
//!   offline/vendored dependency policy.
//! * **Micro-batching scheduler** ([`SpatialService`]) — one dispatcher
//!   thread drains the queue and *coalesces* concurrent requests (up to
//!   `max_batch`, waiting at most `max_wait` for stragglers) into the wide
//!   SoA batches the kernels are fastest at: each run of reads between two
//!   writes is one range sub-batch of all its boxes and one kNN sub-batch
//!   of all its probes, each probe keeping its own `k`. Results split back
//!   per request in the exact order a serial engine run would produce.
//! * **The write path** — the paper's workload is an *alternating* stream
//!   of position updates and queries, so the service is read–write:
//!   [`Request::StepDelta`] carries sparse `(id, envelope)` changes — a
//!   simulation tick ships its movers as one. Every write request is a
//!   **barrier** in the admission order (queries admitted before it see
//!   pre-write state, queries after it see post-write state — exactly a
//!   serial interleaving), and consecutive writes coalesce into one
//!   backend `update_batch` application per dispatch. Requests a backend's
//!   [`Capabilities`] exclude are rejected at admission with
//!   [`SubmitError::ReadOnly`].
//! * **Backends** ([`ServiceBackend`]) — one way to run a `ShardedEngine`
//!   over any `SpatialIndex + KnnIndex`, writable through the write
//!   contract every layer shares: a rebuild function
//!   (`ShardedEngine::with_rebuild`), optionally an in-place apply
//!   function (`ShardedEngine::with_apply`, e.g.
//!   `simspatial_moving::strategy_backend`, whose shard index is a boxed
//!   update strategy). [`ShardedBackend`] parks each
//!   shard in an executor slot and scatters routed lanes onto a
//!   work-stealing pool of `min(SIMSPATIAL_THREADS, shards)` workers,
//!   merging through the engine layer's deduplicating sinks —
//!   byte-identical results to serial execution, with per-shard
//!   parallelism inside a dispatch. A one-worker pool (one shard, or one
//!   thread) spawns no thread and runs its lanes on the dispatcher. Reads
//!   have one path (`query_run`, live or snapshot); the write path routes
//!   update lanes to the same pool, **migrating** elements whose new
//!   envelope crosses shard boundaries (replicas and id maps stay consistent).
//! * **[`ServiceStats`]** — queue depth and high-water mark, admission /
//!   rejection counters, batch-size histogram (is coalescing working?),
//!   per-request latency percentiles, aggregated predicate counters,
//!   write counters (updates applied, shard migrations, coalesced update
//!   batch sizes), failure telemetry (panics caught, shard restarts and
//!   deaths, deadline expiries, partial-coverage responses), and the
//!   backend's memory/shard-size accounting (refreshed
//!   after every write, so migrations show up).
//! * **Fault tolerance** — the serving path survives panics by
//!   construction: every shard-worker job and every dispatcher-inline
//!   backend call runs under `catch_unwind`. A panicked shard is
//!   quarantined, restarted from the planner's retained element store
//!   (bounded attempts with exponential backoff, see
//!   [`SupervisorPolicy`]), and finally declared dead — after which
//!   range/count queries **degrade** (skip it and report partial coverage
//!   via [`Reply::shards_skipped`]) while kNN queries touching it **fail
//!   typed** with [`RecvError::WorkerFailed`]. Requests carry deadlines
//!   ([`ServiceConfig::default_deadline`], [`SubmitOptions::deadline`])
//!   checked at admission and completion; only a [`SubmitError::Full`]
//!   rejection is safe to resubmit (its doc says why admitted writes are
//!   never blindly retried). The whole failure
//!   matrix is exercised deterministically in ordinary tests through
//!   [`FaultPlan`] and [`ChaosBackend`].
//! * **Epoch-published snapshot reads** — every applied write barrier
//!   publishes a monotonically increasing **epoch**; reads submitted at
//!   [`Consistency::Snapshot`] (via [`ServiceHandle::submit_at`]) are
//!   hoisted in front of a dispatch's pending write barriers and answered
//!   at the last published epoch, so one slow tick no longer stalls the
//!   read fleet. No copy is kept for them: a hoisted run executes before
//!   any write of its dispatch, while live state *is* the last published
//!   epoch. `ReadYourWrites { min_epoch }` floors
//!   freshness at the submitter's last acknowledged write (acks carry the
//!   publishing epoch in [`Reply::epoch`]); `Barrier` (the default) keeps the strict
//!   pre-epoch ordering and doubles as the differential oracle the
//!   snapshot consistency suite compares against. Every backend serves
//!   snapshot reads.
//!
//! ## Quick start
//!
//! ```
//! use simspatial_datagen::ElementSoupBuilder;
//! use simspatial_geom::{Aabb, Point3};
//! use simspatial_index::{GridConfig, ShardedEngine, UniformGrid};
//! use simspatial_service::{Request, ServiceConfig, ShardedBackend, SpatialService};
//!
//! let data = ElementSoupBuilder::new().count(2000).seed(11).build();
//! let sharded = ShardedEngine::build(data.elements(), 2, |part| {
//!     UniformGrid::build(part, GridConfig::auto(part))
//! });
//! let service = SpatialService::spawn(ShardedBackend::spawn(sharded), ServiceConfig::default());
//!
//! // Clients clone the handle and submit concurrently; here, one inline.
//! let handle = service.handle();
//! let ticket = handle
//!     .submit(Request::Knn(vec![(Point3::new(10.0, 10.0, 10.0), 5)]))
//!     .unwrap();
//! let neighbours = ticket.recv().unwrap().into_knn().unwrap();
//! assert_eq!(neighbours[0].len(), 5);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```
//!
//! ## Writing through the service
//!
//! A writable backend serves the full simulation loop — updates and the
//! queries that monitor them share one admission path:
//!
//! ```
//! use simspatial_datagen::ElementSoupBuilder;
//! use simspatial_geom::{Aabb, Point3};
//! use simspatial_index::{GridConfig, ShardedEngine, UniformGrid};
//! use simspatial_service::{Request, ServiceConfig, ShardedBackend, SpatialService};
//!
//! let data = ElementSoupBuilder::new().count(2000).seed(11).build();
//! let build = |part: &[simspatial_geom::Element]| UniformGrid::build(part, GridConfig::auto(part));
//! // `with_rebuild` attaches the per-shard write path.
//! let sharded = ShardedEngine::build(data.elements(), 2, build).with_rebuild(build);
//! let service = SpatialService::spawn(ShardedBackend::spawn(sharded), ServiceConfig::default());
//!
//! let handle = service.handle();
//! assert!(handle.capabilities().updates);
//! // Move element 42 — a write barrier: queries admitted after it see it.
//! let target = Aabb::new(Point3::new(5.0, 5.0, 5.0), Point3::new(6.0, 6.0, 6.0));
//! handle.submit(Request::StepDelta(vec![(42, target)])).unwrap().recv().unwrap();
//! let hits = handle
//!     .submit(Request::Range(vec![target]))
//!     .unwrap()
//!     .recv()
//!     .unwrap()
//!     .into_range()
//!     .unwrap();
//! assert!(hits[0].contains(&42));
//! let stats = service.shutdown();
//! assert_eq!(stats.updates_applied, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod fault;
mod request;
mod service;
mod stats;

pub use backend::{
    BackendTelemetry, BatchReport, Capabilities, EngineBackend, QueryRun, QueryRunReport,
    QueryRunResults, ServiceBackend, ShardedBackend, SupervisorPolicy, UpdateReport,
};
pub use fault::{ChaosBackend, FaultKind, FaultPlan, ScheduledFault};
pub use request::{Consistency, RecvError, Reply, Request, Response, SubmitError, Ticket};
pub use service::{ServiceConfig, ServiceHandle, SpatialService, SubmitOptions};
pub use stats::{LatencyHistogram, ServiceStats, TenantStats, BATCH_BUCKETS, LATENCY_BUCKETS};
