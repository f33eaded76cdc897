//! Execution backends the scheduler dispatches coalesced batches to.
//!
//! The scheduler is backend-agnostic and has **one read path**: every run
//! of queries between two write barriers goes to the backend as a single
//! [`ServiceBackend::query_run`] call — live, or against the last published
//! epoch. What a backend can do beyond reads it states once, as
//! [`Capabilities`]. Two implementations ship:
//!
//! * [`EngineBackend`] — a single [`QueryEngine`] over one index. The
//!   dispatcher thread executes inline: one worker total, the degenerate
//!   (but often fastest single-core) deployment.
//! * [`ShardedBackend`] — a [`ShardedEngine`] split into its
//!   [`ShardPlanner`] and per-shard
//!   [`ShardExecutor`](simspatial_index::ShardExecutor)s, executed on a
//!   **work-stealing worker pool**. Each executor sits in two slots, a
//!   *live* one that writes mutate and (after
//!   [`ShardedBackend::spawn_snapshot`]) a *snapshot* one kept level with
//!   it: a shard's write job applies its lane to the live executor and,
//!   when that ran in place, **replays the same lane on the snapshot copy**
//!   before it reports — membership changes included, where the shard
//!   index splices them ([`SpatialIndex::splice`]). One write wave per
//!   write; `publish` only forks, and the live executor is forked only on
//!   startup, after a lane that rebuilt the shard (a bulk membership
//!   change, an index that cannot splice, an engine without `with_apply`),
//!   after a restart and on repair. The dispatcher routes a run into per-shard lanes and
//!   scatters them as stealable jobs: each pool worker owns a local deque
//!   (a shard's jobs land on its owner's queue) and steals the oldest job
//!   from a sibling when its own queue drains, so an uneven shard split
//!   does not leave workers idle. There is one scatter/gather/supervise/
//!   merge loop, and every `query_run` — live or snapshot, a whole run or
//!   one sub-batch — goes through it. Results stay byte-identical to a
//!   serial [`ShardedEngine`] run:
//!   routing, execution plans and the deduplicating merges are the exact
//!   same code — only *where* each shard's sub-batch runs changes.
//!
//! The pool is sized `min(parallel::num_threads(), shard count)` at spawn,
//! so `SIMSPATIAL_THREADS=1` (or a single-core host) degrades to one
//! worker without cross-thread ping-pong, and a backend never spawns more
//! threads than it has shards to run.

use crate::fault::FaultKind;
use simspatial_geom::scratch::VisitedTable;
use simspatial_geom::{parallel, Aabb, Element, ElementId, Point3, Shape};
use simspatial_index::{
    BatchResults, KnnBatchResults, KnnIndex, KnnLane, QueryEngine, QueryStats, RangeLane,
    ShardApply, ShardApplyCost, ShardExecutor, ShardPlanner, ShardedEngine, SpatialIndex,
    UpdateLane, UpdateLaneReport, UpdateStats,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The report of one executed query batch: the usual execution accounting
/// plus the failure metadata the supervision layer needs to complete every
/// request honestly.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// The execution accounting (timings, result counts, predicate tests).
    pub stats: QueryStats,
    /// Queries/probes the backend could **not** answer correctly:
    /// `(index within the batch, shard held responsible)`. The scheduler
    /// completes the owning requests with
    /// [`RecvError::WorkerFailed`](crate::RecvError::WorkerFailed) instead
    /// of returning silently-wrong results — today this is kNN probes
    /// whose home or fan-out set includes a dead shard.
    pub failed: Vec<(u32, usize)>,
    /// Queries answered with **reduced coverage**:
    /// `(index within the batch, number of shards skipped)`. Range and
    /// count queries over dead shards degrade rather than fail: the result
    /// is correct over the surviving shards, and the skip count travels to
    /// the client as partial-coverage metadata.
    pub partial: Vec<(u32, u32)>,
}

impl From<QueryStats> for BatchReport {
    fn from(stats: QueryStats) -> Self {
        Self {
            stats,
            failed: Vec::new(),
            partial: Vec::new(),
        }
    }
}

/// The report of one applied write batch: accounting plus the shard (if
/// any) on which the write could not be (fully) applied.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateReport {
    /// The write accounting (applied/migrations/skipped, timing).
    pub stats: UpdateStats,
    /// `Some(shard)` when the write's durability is compromised: a shard
    /// died while applying it, or an injected fault dropped it before it
    /// reached the backend. The scheduler completes the affected write
    /// requests with
    /// [`RecvError::WorkerFailed`](crate::RecvError::WorkerFailed).
    pub failed: Option<usize>,
}

impl From<UpdateStats> for UpdateReport {
    fn from(stats: UpdateStats) -> Self {
        Self {
            stats,
            failed: None,
        }
    }
}

/// Cumulative failure counters a backend exposes to the service stats:
/// what the supervision layer caught, repaired, and gave up on — plus the
/// worker-pool utilisation gauges that make load imbalance observable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendTelemetry {
    /// Panics caught on backend worker threads (shard-worker jobs).
    pub panics_caught: u64,
    /// Shard executors successfully rebuilt from the planner's retained
    /// element store after a panic.
    pub shard_restarts: u64,
    /// Shards declared dead: restart budget exhausted, or no rebuild path
    /// available. Dead shards are skipped by queries (range/count degrade
    /// to partial coverage; kNN fails typed) and never resurrect.
    pub shards_dead: u64,
    /// Pool jobs executed by a worker other than the owner of the queue
    /// they were scattered to — the work-stealing rebalance counter.
    pub worker_steals: u64,
    /// Per-pool-worker cumulative busy time (nanoseconds spent executing
    /// shard jobs). Empty for backends without a worker pool.
    pub worker_busy_ns: Vec<u64>,
    /// Shard snapshots published by **forking** the live executor (a deep
    /// copy): the startup publish, shards a write rebuilt (not merely
    /// changed the membership of), restarted shards, repairs.
    pub snapshot_forks: u64,
    /// Shard snapshots kept level by **replaying** a write lane on the
    /// existing copy, in the write's own pool job right after the live
    /// executor applied it in place — what an in-place write costs to
    /// publish.
    pub snapshot_replays: u64,
    /// Bytes copied by those forks, cumulative.
    pub snapshot_fork_bytes: u64,
    /// Bytes currently held by published snapshot copies (0 for backends
    /// that share state instead of copying). Replaced copies are freed, so
    /// an idle service holds at most one published snapshot per shard.
    pub snapshot_clone_bytes: u64,
}

/// What a backend can do beyond answering queries, read once by the
/// scheduler at spawn. A request the backend cannot serve is rejected at
/// admission ([`SubmitError::ReadOnly`](crate::SubmitError)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// `update_batch` applies geometry writes (`Update`/`Step`/`StepDelta`).
    pub updates: bool,
    /// `insert_batch` / `remove_batch` change membership (`Insert`/`Remove`).
    pub membership: bool,
    /// Published snapshot reads: the scheduler hoists
    /// [`Consistency::Snapshot`](crate::Consistency) reads ahead of write
    /// barriers and calls [`ServiceBackend::publish`] after every write.
    pub snapshots: bool,
}

/// Restart discipline for supervised shard workers: how many times a shard
/// may be rebuilt over its lifetime, and how the supervisor backs off
/// between attempts when rebuilding itself keeps failing.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Lifetime restart budget per shard; the panic that exceeds it (or
    /// any panic, when no rebuild path exists) declares the shard dead.
    pub max_restarts: u32,
    /// Backoff before the second restart attempt; doubles per subsequent
    /// attempt (the first attempt is immediate).
    pub backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
        }
    }
}

/// One coalesced **query run** of a dispatch: the maximal run of query
/// requests between two write barriers, flattened into the coalesced range
/// batch plus one kNN batch per distinct `k`. Built by the scheduler,
/// executed in one call through [`ServiceBackend::query_run`] — which is
/// what lets a backend run the independent sub-batches concurrently.
#[derive(Debug, Default)]
pub struct QueryRun {
    /// Every range/count box of the run, in admission order.
    pub range: Vec<Aabb>,
    /// Per-`k` probe groups, ascending by `k`, probes in admission order
    /// within each group.
    pub knn: Vec<(usize, Vec<Point3>)>,
}

impl QueryRun {
    /// True when the run carries no work at all.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty() && self.knn.is_empty()
    }
}

/// Result buffers for one [`QueryRun`]; the scheduler reuses one across
/// dispatches so the buffers recycle.
#[derive(Debug, Default)]
pub struct QueryRunResults {
    /// Results of the range sub-batch (one id list per box).
    pub range: BatchResults,
    /// One result set per kNN group, index-aligned with [`QueryRun::knn`]
    /// (surplus buffers from wider earlier runs are left in place).
    pub knn: Vec<KnnBatchResults>,
}

impl QueryRunResults {
    /// Grows the per-group kNN buffer list to at least `groups` entries.
    pub fn ensure_knn(&mut self, groups: usize) {
        while self.knn.len() < groups {
            self.knn.push(KnnBatchResults::new());
        }
    }
}

/// What happened to one sub-batch of an executed [`QueryRun`].
#[derive(Debug, Clone)]
pub enum SubBatchOutcome {
    /// The sub-batch executed and reported. (Its results may still be
    /// arity-mismatched under fault injection — the scheduler validates
    /// result counts before trusting them.)
    Ran(BatchReport),
    /// The backend call panicked; the panic was caught and the backend
    /// recovered, so later sub-batches still ran.
    Panicked,
    /// Not executed: an earlier sub-batch panicked and the backend could
    /// not vouch for its state ([`QueryRunReport::poisoned`] is set).
    Skipped,
}

/// The per-sub-batch outcomes of one [`ServiceBackend::query_run`] call.
#[derive(Debug, Clone, Default)]
pub struct QueryRunReport {
    /// Outcome of the range sub-batch; `None` when the run had no boxes.
    pub range: Option<SubBatchOutcome>,
    /// Outcome per kNN group, index-aligned with [`QueryRun::knn`].
    pub knn: Vec<SubBatchOutcome>,
    /// Panics caught inside the run (the scheduler folds these into its
    /// `panics_caught` accounting).
    pub panics: u64,
    /// Set when a panic occurred and [`ServiceBackend::recover`] returned
    /// `false`: the backend state is unknown and the scheduler must poison
    /// the service.
    pub poisoned: bool,
}

/// A batch execution target for the service scheduler.
///
/// Contract mirrors the engine layer: a [`QueryRun`]'s range sub-batch
/// fills one id list per query (in plan emission order), each kNN
/// sub-batch one ascending `(distance, id)` list per probe. What a backend
/// serves beyond reads it states in [`ServiceBackend::capabilities`].
pub trait ServiceBackend: Send + 'static {
    /// What this backend can do beyond reads.
    fn capabilities(&self) -> Capabilities;

    /// Executes one whole [`QueryRun`] — range + one kNN batch per `k`,
    /// between two write barriers — resetting each sub-batch's buffer
    /// first. [`BatchReport::partial`] flags queries answered with reduced
    /// shard coverage, [`BatchReport::failed`] queries that must complete
    /// with a typed error. With `snapshot` set the run answers at the
    /// **last published snapshot**; a backend without snapshot copies may
    /// ignore the flag, since its state equals the last published epoch
    /// whenever a snapshot run executes (see [`ServiceBackend::publish`]).
    /// Results must be byte-identical to running the sub-batches one by one
    /// in canonical order (range, then kNN groups ascending by `k`).
    fn query_run(
        &mut self,
        run: &QueryRun,
        snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport;

    /// Applies one coalesced write batch: each `(id, shape)` entry replaces
    /// that element's geometry (duplicate ids resolve last-write-wins).
    /// Called by the scheduler between query runs so the write-barrier
    /// ordering holds. The default (read-only backend) applies nothing and
    /// reports every entry skipped — unreachable through the service,
    /// which rejects writes at admission unless
    /// [`Capabilities::updates`] is set.
    fn update_batch(&mut self, updates: &[(ElementId, Shape)]) -> UpdateReport {
        UpdateStats {
            skipped: updates.len() as u64,
            ..UpdateStats::default()
        }
        .into()
    }

    /// Inserts new elements, allocating fresh element ids (id allocation
    /// is the backend's job — for the sharded backend, the planner's).
    /// Returns the allocated ids in input order. The default (no
    /// membership support) allocates nothing and reports every entry
    /// skipped — unreachable through the service, which rejects
    /// [`Request::Insert`](crate::Request::Insert) at admission unless
    /// [`Capabilities::membership`] is set.
    fn insert_batch(&mut self, shapes: &[Shape]) -> (Vec<ElementId>, UpdateReport) {
        (
            Vec::new(),
            UpdateStats {
                skipped: shapes.len() as u64,
                ..UpdateStats::default()
            }
            .into(),
        )
    }

    /// Removes elements by id (tombstoned: the ids never come back, and
    /// later updates to them are skipped). Same default/admission contract
    /// as [`ServiceBackend::insert_batch`].
    fn remove_batch(&mut self, ids: &[ElementId]) -> UpdateReport {
        UpdateStats {
            skipped: ids.len() as u64,
            ..UpdateStats::default()
        }
        .into()
    }

    /// Called by the scheduler after a panic unwound out of a backend call
    /// on the dispatcher thread. Returns `true` when the backend restored
    /// (or never lost) a consistent state and can keep serving; `false`
    /// poisons the service — every subsequent request completes with
    /// [`RecvError::WorkerFailed`](crate::RecvError::WorkerFailed) instead
    /// of touching a possibly-corrupt backend.
    ///
    /// The default is honest for a generic backend: a query panic is
    /// recoverable (queries must not mutate durable state), a write panic
    /// is not (the batch may be half-applied with no way to verify).
    fn recover(&mut self, after_write: bool) -> bool {
        !after_write
    }

    /// Cumulative supervision counters (panics caught on worker threads,
    /// shard restarts, shards dead). Pulled into
    /// [`ServiceStats`](crate::ServiceStats) after every dispatch.
    fn telemetry(&self) -> BackendTelemetry {
        BackendTelemetry::default()
    }

    /// Installs deterministic worker-level faults (`(shard, job sequence,
    /// kind)` triples) into the backend's worker threads — the test-only
    /// hook [`ChaosBackend`](crate::ChaosBackend) uses to schedule shard
    /// crashes and stalls. Backends without worker threads ignore it.
    fn install_worker_faults(&mut self, _faults: &[(usize, u64, FaultKind)]) {}

    /// Publishes the backend's current state as the read snapshot for
    /// `epoch`. The scheduler calls this once at startup (epoch 0) and
    /// immediately after **every** applied write barrier, strictly between
    /// backend calls (no queries or writes in flight), and runs no snapshot
    /// read between a write and its publish — which is the invariant
    /// everything else leans on: between two publishes, live state is
    /// byte-identical to the last published epoch. A backend that keeps
    /// copies may therefore bring a copy up to date inside the write itself
    /// ([`ShardedBackend`] replays each lane its shards applied in place on
    /// that shard's copy, in the same pool job) and leave `publish` only
    /// the copies the write could not keep level. Must be idempotent per
    /// epoch: the scheduler retries after a caught panic, and a retried
    /// publish must not publish the epoch twice. The default does nothing
    /// — a backend without snapshot copies already satisfies the contract,
    /// because its current state *is* the published state.
    fn publish(&mut self, _epoch: u64) {}

    /// Structure bytes the backend holds (surfaced through `ServiceStats`;
    /// refreshed after every update application, so post-migration shrink
    /// is visible).
    fn memory_bytes(&self) -> usize;

    /// Elements per shard (one entry for unsharded backends); refreshed
    /// after every update application.
    fn shard_sizes(&self) -> Vec<usize>;

    /// Stops any worker threads. Called once by the scheduler on orderly
    /// shutdown; must be idempotent.
    fn shutdown(&mut self) {}
}

/// One sub-batch of a [`QueryRun`] and its result buffer, as
/// [`run_sub_batches`] hands them out.
pub(crate) enum SubBatch<'a> {
    /// The run's range boxes.
    Range(&'a [Aabb], &'a mut BatchResults),
    /// One kNN group: its probes and `k`.
    Knn(&'a [Point3], usize, &'a mut KnnBatchResults),
}

/// Runs a [`QueryRun`]'s sub-batches **sequentially** in the canonical
/// order (range first, then kNN groups ascending by `k`), each through
/// `exec` under `catch_unwind`: a panicking sub-batch reports `Panicked`
/// and the backend is asked to [`ServiceBackend::recover`]; when it cannot
/// vouch for its state, the rest of the run is `Skipped` and the report
/// poisoned. The [`EngineBackend`] read path, and the order
/// [`ChaosBackend`](crate::ChaosBackend) keys its fault schedule by — one
/// op per sub-batch.
pub(crate) fn run_sub_batches<B: ServiceBackend>(
    backend: &mut B,
    run: &QueryRun,
    out: &mut QueryRunResults,
    mut exec: impl FnMut(&mut B, SubBatch<'_>) -> BatchReport,
) -> QueryRunReport {
    out.ensure_knn(run.knn.len());
    let range = (!run.range.is_empty()).then_some(SubBatch::Range(&run.range, &mut out.range));
    let knn = run
        .knn
        .iter()
        .zip(&mut out.knn)
        .map(|((k, p), o)| SubBatch::Knn(p, *k, o));
    let mut report = QueryRunReport::default();
    for sub in range.into_iter().chain(knn) {
        let is_range = matches!(sub, SubBatch::Range(..));
        let outcome = if report.poisoned {
            SubBatchOutcome::Skipped
        } else {
            match catch_unwind(AssertUnwindSafe(|| exec(backend, sub))) {
                Ok(r) => SubBatchOutcome::Ran(r),
                Err(_) => {
                    report.panics += 1;
                    report.poisoned = !backend.recover(false);
                    SubBatchOutcome::Panicked
                }
            }
        };
        if is_range {
            report.range = Some(outcome);
        } else {
            report.knn.push(outcome);
        }
    }
    report
}

/// The stored index (re)build function of a writable [`EngineBackend`]
/// ([`simspatial_index::ShardRebuild`] without the sharing: one owner, one
/// thread).
type EngineRebuild<I> = Box<dyn Fn(&[Element]) -> I + Send>;

/// A single-engine backend: one index, one [`QueryEngine`], executed inline
/// on the dispatcher thread (the "single worker" deployment). Read-only by
/// default. It absorbs writes through the same pair of hooks a
/// [`ShardExecutor`] holds: a rebuild function
/// ([`EngineBackend::build_writable`]) makes it writable — correct for
/// **any** index type, and the paper's own measurements show full rebuilds
/// are competitive under massive movement — and an optional apply function
/// ([`EngineBackend::with_apply`]) mutates the index in place instead, with
/// the rebuild kept as the recovery recipe.
pub struct EngineBackend<I> {
    data: Vec<Element>,
    index: I,
    engine: QueryEngine,
    /// Index (re)build function; `None` for a read-only backend.
    rebuild: Option<EngineRebuild<I>>,
    /// In-place write mode; `None` means every write batch rebuilds.
    apply: Option<ShardApply<I>>,
    /// Last-write-wins accounting of the write path.
    seen: VisitedTable,
}

impl<I: SpatialIndex + KnnIndex + Send + 'static> EngineBackend<I> {
    /// A read-only backend over `data` served by a pre-built `index`.
    pub fn new(data: Vec<Element>, index: I) -> Self {
        Self {
            data,
            index,
            engine: QueryEngine::new(),
            rebuild: None,
            apply: None,
            seen: VisitedTable::default(),
        }
    }

    /// Builds the index from `data` with `build`, then wraps both
    /// (read-only).
    pub fn build(data: Vec<Element>, build: impl FnOnce(&[Element]) -> I) -> Self {
        let index = build(&data);
        Self::new(data, index)
    }

    /// A writable backend: every write batch overwrites the updated
    /// elements' geometry in the data and rebuilds the index with `build`
    /// (also the recovery recipe after a panic mid-write).
    pub fn build_writable(
        data: Vec<Element>,
        build: impl Fn(&[Element]) -> I + Send + 'static,
    ) -> Self {
        let mut backend = Self::build(data, &build);
        backend.rebuild = Some(Box::new(build));
        backend
    }

    /// Switches a writable backend to the **in-place** write mode: write
    /// batches go to `apply` instead of rebuilding the index — the closure
    /// shape [`ShardedEngine::with_apply`] takes, so one apply function
    /// serves behind both backends. `apply` receives the index, the data
    /// (`element.id == position`) and the batch's known-id updates in
    /// admission order, duplicates included; it must leave `data[id].shape`
    /// equal to the id's last update, exactly as the rebuild path would.
    pub fn with_apply(
        mut self,
        apply: impl Fn(&mut I, &mut [Element], &[(ElementId, Shape)]) -> ShardApplyCost
            + Send
            + Sync
            + 'static,
    ) -> Self {
        assert!(
            self.rebuild.is_some(),
            "in-place write mode needs the rebuild function for recovery — use build_writable"
        );
        self.apply = Some(Arc::new(apply));
        self
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }
}

impl<I: SpatialIndex + KnnIndex + Send + 'static> ServiceBackend for EngineBackend<I> {
    /// Snapshot reads are free on a single inline engine: current state
    /// always equals the last published epoch, so the default `publish` is
    /// exact, `query_run` ignores its `snapshot` flag, and hoisted snapshot
    /// reads still skip the write barriers queued behind them.
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            updates: self.rebuild.is_some(),
            membership: false,
            snapshots: true,
        }
    }

    fn query_run(
        &mut self,
        run: &QueryRun,
        _snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        run_sub_batches(self, run, out, |b, sub| {
            let (index, data) = (&b.index, &b.data);
            match sub {
                SubBatch::Range(queries, out) => b.engine.range_collect(index, data, queries, out),
                SubBatch::Knn(points, k, out) => b.engine.knn_collect(index, data, points, k, out),
            }
            .into()
        })
    }

    fn update_batch(&mut self, updates: &[(ElementId, Shape)]) -> UpdateReport {
        let shipped = updates.len() as u64;
        let Some(rebuild) = self.rebuild.as_ref() else {
            return UpdateStats {
                skipped: shipped,
                ..UpdateStats::default()
            }
            .into();
        };
        let start = Instant::now();
        // `applied` counts distinct known ids (last-write-wins), the rest
        // is `skipped`; the write itself sees every known-id entry, in
        // admission order.
        self.seen.begin(self.data.len());
        let mut applied = 0u64;
        let mut known = Vec::with_capacity(updates.len());
        for &(id, shape) in updates {
            if (id as usize) < self.data.len() {
                applied += u64::from(self.seen.mark(id));
                known.push((id, shape));
            }
        }
        let mut stats = UpdateStats {
            applied,
            skipped: shipped - applied,
            shipped,
            ..UpdateStats::default()
        };
        match self.apply.as_ref() {
            Some(apply) => {
                let cost = apply(&mut self.index, &mut self.data, &known);
                stats.migrations = cost.structural + cost.rebuilds;
                stats.structural = cost.structural;
                stats.absorbed = cost.absorbed;
                stats.rebuilds = cost.rebuilds;
            }
            None => {
                for &(id, shape) in &known {
                    self.data[id as usize].shape = shape;
                }
                self.index = rebuild(&self.data);
                // Every element is (re)placed by the rebuild.
                stats.migrations = applied;
                stats.structural = self.data.len() as u64;
                stats.rebuilds = 1;
            }
        }
        stats.elapsed_s = start.elapsed().as_secs_f64();
        stats.into()
    }

    /// Queries only touch per-call engine scratch, which the next call
    /// resets. After a panic mid-write the index is rebuilt from the data
    /// — **consistency, not atomicity**: the interrupted batch may be
    /// partially applied (each element holds either its old or its new
    /// geometry; the affected write requests complete with a typed error
    /// either way), and the rebuilt index agrees with whatever the data now
    /// holds, so subsequent queries are correct over it.
    fn recover(&mut self, after_write: bool) -> bool {
        if let (true, Some(rebuild)) = (after_write, self.rebuild.as_ref()) {
            self.index = rebuild(&self.data);
        }
        true
    }

    fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.engine.memory_bytes() + self.seen.memory_bytes()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        vec![self.data.len()]
    }
}

/// A routed lane travelling to a shard worker (to execute) and back (with
/// results filled) — the same type in both directions, so lane allocations
/// recycle across dispatches without re-wrapping.
enum Job {
    Range(RangeLane),
    Knn(KnnLane),
    /// A write lane and its replay half on the shard's snapshot copy.
    Update(UpdateLane, Replay),
}

/// The replay half of a write job: asked for by the dispatcher, answered
/// by the worker in the same field.
#[derive(Clone, Copy)]
enum Replay {
    /// Not run: no level copy, or the live half rebuilt or panicked.
    Skip,
    /// Asked for: the copy is level, so replay the lane on it if the live
    /// half ran in place.
    Wanted,
    /// Ran; the copy is level again. The lane now holds the copy's report,
    /// so the live half's travels here.
    Level(UpdateLaneReport),
    /// Panicked: only the copy is torn.
    Torn,
}

/// What a pool worker sends back per job: which shard it ran on, the tag
/// the scatter phase attached (e.g. the kNN group index, so the gather can
/// route the lane home), the lane (results filled on success, torn on
/// panic — the gather never uses a panicked lane's contents) and whether
/// the job panicked. A worker always reports, even for a job it failed —
/// that is the no-hang guarantee: the gather's `recv` is matched by
/// exactly one `WorkerDone` per job scattered.
struct WorkerDone {
    shard: usize,
    tag: usize,
    job: Job,
    panicked: bool,
}

/// A job travelling through the worker pool: the shard whose executor must
/// run it, the scatter phase's routing tag, the lane itself, and which
/// slot set it runs against (`snap` = the shard's published snapshot
/// executor instead of its live one).
struct PoolJob {
    shard: usize,
    tag: usize,
    job: Job,
    snap: bool,
}

/// The type-erased per-shard execution core a pool worker calls: runs any
/// lane variant against the shard's executor without the backend knowing
/// the index type.
trait RunnerCore: Send {
    /// Runs one routed lane against the owned executor.
    fn run(&mut self, job: &mut Job);
    /// A frozen copy of the owned executor for snapshot serving, or `None`
    /// when the backend was spawned without snapshot support.
    fn fork(&self) -> Option<ShardRunner>;
    /// Bytes held by the owned executor (snapshot-clone accounting).
    fn memory_bytes(&self) -> usize;
}

/// A boxed [`RunnerCore`] — what executor slots hold.
type ShardRunner = Box<dyn RunnerCore>;

/// How a [`Runner`] copies its executor at publish time
/// ([`ShardExecutor::fork`], which needs a `Clone` index).
type ForkFn<I> = fn(&ShardExecutor<I>) -> ShardExecutor<I>;

/// The one [`RunnerCore`]: a shard executor plus the fork hook
/// [`ShardedBackend::spawn_snapshot`] sets (`None` = no snapshot support,
/// so the index type needs no `Clone` bound).
struct Runner<I> {
    exec: ShardExecutor<I>,
    fork: Option<ForkFn<I>>,
}

impl<I: SpatialIndex + KnnIndex + Send + 'static> RunnerCore for Runner<I> {
    fn run(&mut self, job: &mut Job) {
        match job {
            Job::Range(lane) => lane.run(&mut self.exec),
            Job::Knn(lane) => lane.run(&mut self.exec),
            Job::Update(lane, _) => lane.run(&mut self.exec),
        }
    }

    fn fork(&self) -> Option<ShardRunner> {
        let fork = self.fork?;
        Some(Box::new(Runner {
            exec: fork(&self.exec),
            fork: self.fork,
        }))
    }

    fn memory_bytes(&self) -> usize {
        self.exec.memory_bytes()
    }
}

/// The per-shard executor slots, shared between the backend (supervision:
/// rebuild, declare dead) and the pool workers (execution). `None` marks a
/// torn executor — a job panicked inside it and only a supervisor rebuild
/// from the planner's retained element store may bring the shard back.
/// The slot mutex also serialises same-shard jobs when a scatter put more
/// than one in flight (independent sub-batches of one query run).
type RunnerSlots = Arc<Vec<Mutex<Option<ShardRunner>>>>;

fn lock_slot(slot: &Mutex<Option<ShardRunner>>) -> std::sync::MutexGuard<'_, Option<ShardRunner>> {
    // A panic can never unwind while the guard is held (job panics are
    // caught inside), but stay robust against poisoning anyway.
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The deque state of the worker pool, under one mutex: cheap to lock
/// (queue operations only — jobs execute outside it) and simple to reason
/// about, which is what the byte-identical guarantee rides on.
struct PoolState {
    /// One local deque per pool worker. A shard's jobs are scattered onto
    /// queue `shard % workers`; the owner pops its **front**, thieves pop
    /// other queues' **backs** — stolen work is the oldest queued, which
    /// keeps a queue's jobs flowing roughly in scatter order.
    queues: Vec<VecDeque<PoolJob>>,
    shutdown: bool,
}

/// Everything the pool workers share with the backend.
struct PoolShared {
    state: Mutex<PoolState>,
    work_available: Condvar,
    /// Jobs executed by a worker other than their queue's owner.
    steals: AtomicU64,
    /// Per-worker cumulative busy nanoseconds (time executing jobs).
    busy_ns: Vec<AtomicU64>,
    /// Per-shard job sequence counters and scheduled worker-level faults
    /// `(job sequence, kind)` — installed by the backend, looked up by the
    /// workers. Both live outside the executor slots, so a fault schedule
    /// spans executor incarnations deterministically. **Every** pool job
    /// of a shard draws one number — live lanes and snapshot reads alike —
    /// and a write job whose replay half runs draws a second one right
    /// after its live half, which is what lets a plan aim a fault at a
    /// replay. A replay happens only on a snapshot-publishing backend whose
    /// shards write in place, so plans written for any other configuration
    /// count exactly the jobs they always did.
    seqs: Vec<AtomicU64>,
    faults: Vec<Mutex<Vec<(u64, FaultKind)>>>,
}

impl PoolShared {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The work-stealing worker pool of a [`ShardedBackend`]: `min(threads,
/// shards)` persistent workers executing shard jobs from per-worker local
/// deques, with idle workers stealing across queues.
struct WorkerPool {
    shared: Arc<PoolShared>,
    done_rx: mpsc::Receiver<WorkerDone>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns the pool: `min(parallel::num_threads(), shards)` workers
    /// (at least one), each holding clones of the executor slots.
    fn spawn(shards: usize, slots: &RunnerSlots, snap_slots: &RunnerSlots) -> Self {
        let workers = parallel::num_threads().min(shards.max(1)).max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
            steals: AtomicU64::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            seqs: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            faults: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let (done_tx, done_rx) = mpsc::channel::<WorkerDone>();
        let threads = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let slots = Arc::clone(slots);
                let snap_slots = Arc::clone(snap_slots);
                let done_tx = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("simspatial-pool-{w}"))
                    .spawn(move || pool_worker_loop(w, &shared, &slots, &snap_slots, &done_tx))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self {
            shared,
            done_rx,
            threads,
        }
    }

    /// Number of pool workers.
    fn workers(&self) -> usize {
        self.threads.len().max(1)
    }

    /// Enqueues one job onto its shard's owner queue and wakes a worker.
    /// `snap` routes it to the shard's published snapshot executor.
    fn submit(&self, shard: usize, tag: usize, job: Job, snap: bool) {
        let mut state = self.shared.lock_state();
        assert!(!state.shutdown, "backend already shut down");
        let owner = shard % state.queues.len();
        state.queues[owner].push_back(PoolJob {
            shard,
            tag,
            job,
            snap,
        });
        drop(state);
        self.shared.work_available.notify_one();
    }

    /// Receives one completion. Every scattered job produces exactly one
    /// (panicked jobs included), so a gather of `in_flight` `recv_done`
    /// calls never hangs.
    fn recv_done(&self) -> WorkerDone {
        self.done_rx
            .recv()
            .expect("pool workers outlive in-flight jobs")
    }

    /// Stops and joins every worker. Idempotent.
    fn stop(&mut self) {
        self.shared.lock_state().shutdown = true;
        self.shared.work_available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One pool worker: pop the front of the own queue, steal the back of a
/// sibling's otherwise, sleep on the condvar when everything is empty.
///
/// Every job runs under `catch_unwind` (over an `AssertUnwindSafe` closure
/// — the executor never crosses the boundary again after a panic): a
/// panicking job clears the shard's executor slot (the executor may be
/// torn mid-update, so the only safe continuation is a supervisor rebuild)
/// and still produces a `WorkerDone { panicked: true }` report. A write
/// job then runs its replay half, if it asked for one.
fn pool_worker_loop(
    worker: usize,
    shared: &PoolShared,
    slots: &RunnerSlots,
    snap_slots: &RunnerSlots,
    done_tx: &mpsc::Sender<WorkerDone>,
) {
    loop {
        let (pool_job, stolen) = {
            let mut state = shared.lock_state();
            loop {
                if let Some(job) = state.queues[worker].pop_front() {
                    break (job, false);
                }
                let n = state.queues.len();
                let victim = (1..n)
                    .map(|d| (worker + d) % n)
                    .find(|&v| !state.queues[v].is_empty());
                if let Some(v) = victim {
                    let job = state.queues[v].pop_back().expect("victim queue non-empty");
                    break (job, true);
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
        }
        let PoolJob {
            shard,
            tag,
            mut job,
            snap,
        } = pool_job;
        let started = Instant::now();
        let slot_set = if snap { snap_slots } else { slots };
        let panicked = run_job(shared, shard, &mut lock_slot(&slot_set[shard]), &mut job);
        replay_half(shared, shard, &snap_slots[shard], &mut job, panicked);
        shared.busy_ns[worker].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if done_tx
            .send(WorkerDone {
                shard,
                tag,
                job,
                panicked,
            })
            .is_err()
        {
            return; // the backend is gone; nothing left to report to
        }
    }
}

/// Runs `job` on the runner in `slot` under the shard's next job number
/// (see `PoolShared::seqs`), firing the fault a plan scheduled there.
/// Returns whether the job panicked; a panic clears the slot.
fn run_job(
    shared: &PoolShared,
    shard: usize,
    slot: &mut Option<ShardRunner>,
    job: &mut Job,
) -> bool {
    let seq = shared.seqs[shard].fetch_add(1, Ordering::Relaxed);
    let fault = shared.faults[shard]
        .lock()
        .ok()
        .and_then(|f| f.iter().find(|&&(at, _)| at == seq).map(|&(_, k)| k));
    let panicked = match slot.as_mut() {
        // Torn since the scatter (an earlier in-flight job panicked):
        // report as panicked without running — the supervisor decides.
        None => true,
        Some(runner) => catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(FaultKind::Panic) => {
                    panic!("chaos: injected fault on shard {shard}, job {seq}")
                }
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                _ => {}
            }
            runner.run(job)
        }))
        .is_err(),
    };
    if panicked {
        *slot = None;
    }
    panicked
}

/// The replay half of a write job that asked for one ([`Replay::Wanted`]):
/// when the live half ran in place, the same lane runs on the shard's
/// snapshot copy, leaving it byte-identical to a fresh fork (the
/// [`ShardApply`] determinism contract). It draws its own job number, so a
/// plan can aim a fault at it, and a panic tears only the copy.
fn replay_half(
    shared: &PoolShared,
    shard: usize,
    copy: &Mutex<Option<ShardRunner>>,
    job: &mut Job,
    live_panicked: bool,
) {
    let Job::Update(lane, Replay::Wanted) = job else {
        return;
    };
    let live = *lane.report();
    let mut copy = lock_slot(copy);
    let in_place = live.rebuilds == 0 && live.rebuilds_avoided == 1;
    let outcome = if live_panicked || !in_place || copy.is_none() {
        Replay::Skip
    } else if run_job(shared, shard, &mut copy, job) {
        Replay::Torn
    } else {
        Replay::Level(live)
    };
    if let Job::Update(_, replay) = job {
        *replay = outcome;
    }
}

/// The type-erased shard-restart recipe a [`ShardedBackend`] stores at
/// spawn: rebuilds shard `i`'s executor from the planner's element store
/// and wraps it into a fresh pool runner, returning the runner plus the
/// rebuilt shard's element count. `Err` when the rebuild itself panicked
/// (the supervisor backs off and retries).
type RespawnFn = Box<dyn Fn(&ShardPlanner, usize) -> Result<(ShardRunner, usize), ()> + Send>;

/// A region-sharded backend executing on a **work-stealing worker pool**.
/// Built by splitting a [`ShardedEngine`] into planner + executors
/// ([`ShardedEngine::into_parts`]) and parking each executor in a shared
/// slot the pool workers run jobs against; the scheduler-side half routes,
/// scatters lanes as stealable jobs, gathers, and merges.
///
/// Results are byte-identical to running the same `ShardedEngine`
/// serially: routing, execution plans and the deduplicating merge are the
/// exact same code — only *where* each shard's sub-batch runs changes.
pub struct ShardedBackend {
    planner: ShardPlanner,
    pool: WorkerPool,
    /// Per-shard executor slots, shared with the pool workers. `None`
    /// marks a torn executor between a panic and the supervisor's verdict
    /// (rebuilt or dead); outside `handle_panics` every live shard is
    /// `Some` and every dead shard is `None`.
    slots: RunnerSlots,
    sizes: Vec<usize>,
    /// Per-shard structure bytes, captured at spawn and refreshed from the
    /// [`UpdateLane`] reports after every write batch — so post-migration
    /// shrink is reflected even though the executors live on their worker
    /// threads.
    shard_memory: Vec<usize>,
    /// Whether every executor had a rebuild function attached
    /// (`ShardedEngine::with_rebuild`) — the write path needs it.
    updatable: bool,
    policy: SupervisorPolicy,
    /// Remaining lifetime restart budget per shard.
    restarts_left: Vec<u32>,
    /// Shards whose restart budget is exhausted (or that panicked with no
    /// rebuild path). Dead shards never resurrect.
    dead: Vec<bool>,
    telemetry: BackendTelemetry,
    /// Rebuilds a shard's executor from the planner's element store and
    /// wraps it into a fresh pool runner. `None` when the engine was built
    /// without a rebuild function — then any panic kills its shard.
    factory: Option<RespawnFn>,
    /// Per-shard **published snapshot** executor slots, shared with the
    /// pool workers (snapshot jobs run against these). `None` for shards
    /// with no published snapshot (pre-first-publish, dead, or torn by a
    /// panicked snapshot job awaiting repair). Replacing a slot drops the
    /// previous copy — at most one published snapshot per shard, ever.
    snap_slots: RunnerSlots,
    /// Per shard, whether the snapshot copy must be re-forked at the next
    /// [`ServiceBackend::publish`]: there is no copy yet, or the live
    /// executor moved without it (a lane that rebuilt the shard or whose
    /// replay half tore the copy, a restart). A level copy stays level
    /// through every in-place write, since the write job replays its lane.
    refork: Vec<bool>,
    /// Per-shard snapshot copy bytes (the clone-bytes gauge input):
    /// sampled at fork, refreshed by every replay's lane report.
    snap_bytes: Vec<usize>,
    /// Whether executors can fork snapshot copies
    /// ([`ShardedBackend::spawn_snapshot`]).
    snapshots: bool,
    range_lanes: Vec<RangeLane>,
    /// Per-kNN-group lane scratch of the read path's combined scatter
    /// (indexed `[group][shard]`).
    knn_home_groups: Vec<Vec<KnnLane>>,
    knn_fan_groups: Vec<Vec<KnnLane>>,
    update_lanes: Vec<UpdateLane>,
}

impl ShardedBackend {
    /// Splits `engine` into planner + executors and spawns the
    /// work-stealing worker pool over them, supervised under
    /// [`SupervisorPolicy::default`]. The backend is writable iff the
    /// engine was built with a rebuild function
    /// ([`ShardedEngine::with_rebuild`]).
    pub fn spawn<I: SpatialIndex + KnnIndex + Send + 'static>(engine: ShardedEngine<I>) -> Self {
        Self::spawn_with(engine, SupervisorPolicy::default())
    }

    /// [`ShardedBackend::spawn`] with an explicit restart discipline.
    pub fn spawn_with<I: SpatialIndex + KnnIndex + Send + 'static>(
        engine: ShardedEngine<I>,
        policy: SupervisorPolicy,
    ) -> Self {
        Self::spawn_inner(engine, policy, None)
    }

    /// [`ShardedBackend::spawn`] with **published snapshot reads**
    /// enabled: requires a `Clone` index type so each shard executor can
    /// fork a frozen copy ([`ShardExecutor::fork`]). The copies are forked
    /// at startup, and from then on a write that a shard applied in place
    /// ([`ShardedEngine::with_apply`]) is replayed on the shard's copy by
    /// the same pool job, at the cost of the write — migrations, inserts
    /// and removals too, when the shard index can splice them; a shard
    /// forks again at publish only after a lane that rebuilt it, a restart
    /// or a repair — so an engine without `with_apply` forks every shard a
    /// write touched. The scheduler detects the capability through
    /// [`Capabilities::snapshots`] and serves
    /// [`Consistency::Snapshot`](crate::Consistency) reads from the copies
    /// while live executors apply later write barriers.
    pub fn spawn_snapshot<I: SpatialIndex + KnnIndex + Clone + Send + 'static>(
        engine: ShardedEngine<I>,
    ) -> Self {
        Self::spawn_inner(
            engine,
            SupervisorPolicy::default(),
            Some(ShardExecutor::fork),
        )
    }

    fn spawn_inner<I: SpatialIndex + KnnIndex + Send + 'static>(
        engine: ShardedEngine<I>,
        policy: SupervisorPolicy,
        fork: Option<ForkFn<I>>,
    ) -> Self {
        let wrap = move |exec| Box::new(Runner { exec, fork }) as ShardRunner;
        let sizes = engine.shard_sizes();
        let updatable = engine.is_updatable();
        let (planner, executors) = engine.into_parts();
        let shard_memory: Vec<usize> = executors.iter().map(ShardExecutor::memory_bytes).collect();
        // Every executor of one engine shares the same rebuild function, so
        // the first one's copy serves as the restart recipe for all shards.
        // Likewise the incremental apply function: the supervisor restores
        // it after a planner-store rebuild, so a restarted shard comes back
        // in the same write mode it crashed in.
        let rebuild = executors.first().and_then(ShardExecutor::rebuild_fn);
        let apply = executors.first().and_then(ShardExecutor::apply_fn);
        let n = executors.len();
        let slots: RunnerSlots = Arc::new(
            executors
                .into_iter()
                .map(|exec| Mutex::new(Some(wrap(exec))))
                .collect(),
        );
        // Snapshot slots start empty; the scheduler's startup publish
        // (epoch 0) forks the initial copies when snapshots are enabled.
        let snap_slots: RunnerSlots = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let pool = WorkerPool::spawn(n, &slots, &snap_slots);
        let factory: Option<RespawnFn> = rebuild.map(|rb| {
            Box::new(move |planner: &ShardPlanner, shard: usize| {
                let rb = rb.clone();
                let ap = apply.clone();
                // The rebuild closure is user code: a panic inside it
                // must not take down the supervisor.
                catch_unwind(AssertUnwindSafe(move || {
                    // Restart rebuilds from the planner store (writes
                    // already folded in), in the write mode the shard
                    // crashed in.
                    let exec = ShardExecutor::from_planner(planner, shard, rb, ap);
                    let len = exec.len();
                    (wrap(exec), len)
                }))
                .map_err(|_| ())
            }) as RespawnFn
        });
        Self {
            planner,
            pool,
            slots,
            sizes,
            shard_memory,
            updatable,
            restarts_left: vec![policy.max_restarts; n],
            policy,
            dead: vec![false; n],
            telemetry: BackendTelemetry::default(),
            factory,
            snap_slots,
            refork: vec![true; n],
            snap_bytes: vec![0; n],
            snapshots: fork.is_some(),
            range_lanes: Vec::new(),
            knn_home_groups: Vec::new(),
            knn_fan_groups: Vec::new(),
            update_lanes: Vec::new(),
        }
    }

    /// Number of shards (live, quarantined, or dead).
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of pool worker threads executing shard jobs.
    pub fn pool_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Indices of shards declared dead by the supervisor.
    pub fn dead_shards(&self) -> Vec<usize> {
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect()
    }

    /// Quarantine → restart → dead transition for every shard in
    /// `panicked`: attempts a rebuild from the planner's element store
    /// under the restart budget, with exponential backoff between
    /// consecutive failing attempts. A shard that cannot be restarted
    /// (budget exhausted, rebuild itself panicking, or no rebuild path at
    /// all) is declared dead. Runs strictly after a gather completed, so
    /// no job of these shards is in flight while the slot is rebuilt.
    fn handle_panics(&mut self, panicked: &[usize]) {
        // One supervision verdict per shard: `panicked` arrives deduplicated
        // (`gather` folds the several in-flight jobs of one torn shard).
        for &i in panicked {
            if self.dead[i] {
                continue;
            }
            self.telemetry.panics_caught += 1;
            // The panicking worker already cleared the slot; clear it
            // anyway to cover every report path.
            *lock_slot(&self.slots[i]) = None;
            let mut restarted = false;
            let mut attempt = 0u32;
            while self.restarts_left[i] > 0 {
                self.restarts_left[i] -= 1;
                if attempt > 0 {
                    let shift = (attempt - 1).min(10);
                    let backoff =
                        (self.policy.backoff * (1u32 << shift)).min(self.policy.max_backoff);
                    std::thread::sleep(backoff);
                }
                attempt += 1;
                let Some(factory) = self.factory.as_ref() else {
                    break;
                };
                match factory(&self.planner, i) {
                    Ok((runner, len)) => {
                        self.shard_memory[i] = runner.memory_bytes();
                        *lock_slot(&self.slots[i]) = Some(runner);
                        self.sizes[i] = len;
                        self.telemetry.shard_restarts += 1;
                        // Rebuilt from the planner store: same contents,
                        // not the structure the snapshot copy mirrors.
                        self.refork[i] = true;
                        restarted = true;
                        break;
                    }
                    Err(()) => continue,
                }
            }
            if !restarted {
                self.dead[i] = true;
                self.telemetry.shards_dead += 1;
                self.sizes[i] = 0;
                self.shard_memory[i] = 0;
                // A dead shard drops its published snapshot too: snapshot
                // reads degrade over exactly the surviving shard set, same
                // as the live path.
                self.install_snapshot(i, None);
            }
        }
    }

    /// Gathers the `in_flight` completions of a read wave from the pool,
    /// routing each lane back to its scratch slot: range lanes to
    /// `range_lanes`, kNN lanes to the per-group scratch (`tag` = group;
    /// `fan_phase` picks home vs fanout). Returns the panicked shards,
    /// sorted and deduplicated.
    fn gather(&mut self, in_flight: usize, fan_phase: bool) -> Vec<usize> {
        let mut panicked = Vec::new();
        for _ in 0..in_flight {
            let done = self.pool.recv_done();
            let WorkerDone {
                shard,
                tag,
                job,
                panicked: p,
            } = done;
            match job {
                Job::Range(lane) => self.range_lanes[shard] = lane,
                Job::Update(..) => unreachable!("the write path gathers its own lanes"),
                Job::Knn(lane) => {
                    let groups = if fan_phase {
                        &mut self.knn_fan_groups
                    } else {
                        &mut self.knn_home_groups
                    };
                    groups[tag][shard] = lane;
                }
            }
            if p {
                panicked.push(shard);
            }
        }
        panicked.sort_unstable();
        panicked.dedup();
        panicked
    }

    /// The one write path (updates, inserts, removals): `route` advances
    /// the planner and fills the update lanes, which then scatter — each
    /// asking for a replay half when the shard's snapshot copy is level —
    /// are supervised, and fold their write-amplification counters into the
    /// report. A copy whose replay half did not run is flagged for the next
    /// publish to re-fork. [`UpdateReport::failed`] names the first shard
    /// that ended **dead**, if any — the typed write failure.
    fn apply_routed<T>(
        &mut self,
        what: &str,
        route: impl FnOnce(&mut ShardPlanner, &mut Vec<UpdateLane>) -> (T, UpdateStats),
    ) -> (T, UpdateReport) {
        // Fail on the calling thread with a clear message (the service
        // never routes writes here when read-only, but the trait is
        // public): without this, the panic would surface on a detached
        // worker thread after the planner already advanced its envelopes.
        assert!(
            self.updatable,
            "{what} on a read-only sharded backend — build the engine with_rebuild"
        );
        let start = Instant::now();
        // Single pass, no retry: routing advances the planner's element
        // store (new geometry, allocated ids, tombstones), which is
        // authoritative. A shard that panics mid-write and restarts is
        // rebuilt *from that advanced store*, so the write is fully applied
        // on it — only a shard that ends dead loses data, and that is
        // surfaced as a typed failure.
        let (value, mut stats) = route(&mut self.planner, &mut self.update_lanes);
        let mut in_flight = 0usize;
        for (i, lane) in self.update_lanes.iter_mut().enumerate() {
            if self.dead[i] {
                // Coverage is already degraded and the planner store stays
                // authoritative, so the batch does not fail.
                lane.clear();
            }
            if lane.is_empty() {
                continue;
            }
            let replay = if self.snapshots && !self.refork[i] {
                Replay::Wanted
            } else {
                Replay::Skip
            };
            self.pool
                .submit(i, 0, Job::Update(std::mem::take(lane), replay), false);
            in_flight += 1;
        }
        let mut panicked = Vec::new();
        for _ in 0..in_flight {
            let done = self.pool.recv_done();
            let (shard, Job::Update(lane, replay)) = (done.shard, done.job) else {
                unreachable!("a write wave runs update lanes only");
            };
            let mut report = *lane.report();
            match replay {
                Replay::Level(live) => {
                    self.snap_bytes[shard] = report.memory_bytes;
                    self.telemetry.snapshot_replays += 1;
                    report = live;
                }
                Replay::Torn => self.telemetry.panics_caught += 1,
                Replay::Skip | Replay::Wanted => {}
            }
            self.refork[shard] = !matches!(replay, Replay::Level(_));
            if done.panicked {
                panicked.push(shard);
            } else {
                self.sizes[shard] = report.len_after;
                self.shard_memory[shard] = report.memory_bytes;
                report.fold_into(&mut stats);
            }
            self.update_lanes[shard] = lane;
        }
        panicked.sort_unstable();
        self.handle_panics(&panicked);
        let failed = panicked.iter().copied().find(|&i| self.dead[i]);
        stats.elapsed_s = start.elapsed().as_secs_f64();
        (value, UpdateReport { stats, failed })
    }

    /// Shards a query run must route around. For a live run that is the
    /// dead set; a snapshot run additionally avoids live shards whose
    /// snapshot slot is empty (a fork that failed and could not be
    /// repaired), which get the same partial/failed treatment as dead
    /// shards rather than silently answering from the wrong epoch.
    fn blocked_shards(&self, snap: bool) -> Vec<bool> {
        (0..self.slots.len())
            .map(|i| self.dead[i] || (snap && lock_slot(&self.snap_slots[i]).is_none()))
            .collect()
    }

    /// Supervision for a panic inside a *snapshot* job: the live shard is
    /// untouched (the job ran against the frozen copy), so instead of a
    /// quarantine/restart cycle the snapshot is simply re-forked from the
    /// live executor. That is exact, not approximate: the scheduler
    /// publishes after every write barrier, so whenever a snapshot run is
    /// on the pool the live state *is* the published epoch's state.
    /// `panicked` arrives deduplicated from `gather`.
    fn repair_snapshots(&mut self, panicked: &[usize]) {
        for &i in panicked {
            self.telemetry.panics_caught += 1;
            let forked = if self.dead[i] {
                None
            } else {
                self.fork_live(i).ok().flatten()
            };
            self.install_snapshot(i, forked);
        }
    }

    /// A deep copy of shard `i`'s live executor (`None` when its slot is
    /// empty); `Err` when the user index's `Clone` panicked.
    fn fork_live(&self, i: usize) -> Result<Option<ShardRunner>, ()> {
        catch_unwind(AssertUnwindSafe(|| {
            lock_slot(&self.slots[i]).as_ref().and_then(|r| r.fork())
        }))
        .map_err(|_| ())
    }

    /// Parks a fork (or nothing) in shard `i`'s snapshot slot, dropping —
    /// and thereby freeing — the copy it replaces. Either clears the
    /// shard's re-fork flag: a fork is level with the live executor by
    /// construction, and an empty slot is not retried until the shard is
    /// written again (its write job then finds no copy to replay on).
    fn install_snapshot(&mut self, i: usize, forked: Option<ShardRunner>) {
        let bytes = forked.as_ref().map_or(0, |r| r.memory_bytes());
        if forked.is_some() {
            self.telemetry.snapshot_forks += 1;
            self.telemetry.snapshot_fork_bytes += bytes as u64;
        }
        self.refork[i] = false;
        self.snap_bytes[i] = bytes;
        *lock_slot(&self.snap_slots[i]) = forked;
    }

    /// Scatters one wave of the routed run onto the pool — wave 1
    /// (`fan_phase == false`): every non-empty range lane, then each of
    /// the `groups` kNN groups' home lanes; wave 2: each group's fan-out
    /// lanes — and waits for all of it to come back (empty lanes skip the
    /// round trip). One shard's jobs serialise on its executor slot;
    /// independent shards (and stolen jobs) overlap. Returns `true` when a
    /// job panicked: the shard was quarantined/restarted (live run) or its
    /// snapshot re-forked (snapshot run), its lanes carry torn results, and
    /// the run must be re-routed against the post-supervision shard set.
    fn scatter_wave(&mut self, snap: bool, fan_phase: bool, groups: usize) -> bool {
        let mut in_flight = 0usize;
        if !fan_phase {
            for (i, lane) in self.range_lanes.iter_mut().enumerate() {
                if !lane.is_empty() {
                    self.pool
                        .submit(i, 0, Job::Range(std::mem::take(lane)), snap);
                    in_flight += 1;
                }
            }
        }
        let knn = if fan_phase {
            &mut self.knn_fan_groups
        } else {
            &mut self.knn_home_groups
        };
        for (g, lanes) in knn[..groups].iter_mut().enumerate() {
            for (i, lane) in lanes.iter_mut().enumerate() {
                if !lane.is_empty() {
                    self.pool.submit(i, g, Job::Knn(std::mem::take(lane)), snap);
                    in_flight += 1;
                }
            }
        }
        let panicked = self.gather(in_flight, fan_phase);
        if panicked.is_empty() {
            return false;
        }
        if snap {
            self.repair_snapshots(&panicked);
        } else {
            self.handle_panics(&panicked);
        }
        true
    }
}

/// Drops the kNN lanes aimed at blocked shards, recording every probe they
/// carried as failed on that shard.
fn fail_blocked(blocked: &[bool], lanes: &mut [KnnLane], failed: &mut Vec<(u32, usize)>) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        if blocked[i] {
            failed.extend(lane.routed().iter().map(|&qi| (qi, i)));
            lane.clear();
        }
    }
}

impl ServiceBackend for ShardedBackend {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            updates: self.updatable,
            membership: self.updatable,
            snapshots: self.snapshots,
        }
    }

    /// The one read path. The whole run — range batch plus every per-`k`
    /// kNN batch — scatters onto the worker pool as **one wave** of shard
    /// jobs, so independent sub-batches overlap across cores instead of
    /// executing back-to-back. kNN fan-out (which needs each group's home
    /// results as seeds) forms a second wave. The per-sub-batch merges run
    /// on the backend thread afterwards and are the same deterministic code
    /// a serial [`ShardedEngine`] runs, so results are byte-identical to
    /// executing the sub-batches one by one. A snapshot run executes every
    /// lane against the shard's **published snapshot** executor (live
    /// ones are free to apply the write barriers queued behind it); routing
    /// still uses the planner, which is exact because its region/envelope
    /// state only gates *which shards are visited*, and snapshot runs only
    /// execute when live and published state agree on membership.
    fn query_run(
        &mut self,
        run: &QueryRun,
        snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        let snap = snapshot && self.snapshots;
        let start = Instant::now();
        let (range, knn) = (&run.range, &run.knn);
        out.ensure_knn(knn.len());
        while self.knn_home_groups.len() < knn.len() {
            self.knn_home_groups.push(Vec::new());
            self.knn_fan_groups.push(Vec::new());
        }
        // Reads are idempotent, so supervision is a retry loop over the
        // whole run: any panic is supervised inside `scatter_wave` and the
        // run re-routes from scratch.
        let mut partial = vec![0u32; range.len()];
        let mut failed: Vec<Vec<(u32, usize)>> = vec![Vec::new(); knn.len()];
        loop {
            // ---- Wave 1: the coalesced range batch plus each kNN group's
            // home lanes, minus lanes aimed at blocked shards — partial
            // coverage for range; typed failure for kNN, where partial
            // neighbours would be silently wrong.
            let blocked = self.blocked_shards(snap);
            self.planner.route_range(range, &mut self.range_lanes);
            partial.iter_mut().for_each(|n| *n = 0);
            for (i, lane) in self.range_lanes.iter_mut().enumerate() {
                if blocked[i] {
                    for &qi in lane.routed() {
                        partial[qi as usize] += 1;
                    }
                    lane.clear();
                }
            }
            for (g, (k, points)) in knn.iter().enumerate() {
                failed[g].clear();
                let home = &mut self.knn_home_groups[g];
                self.planner.route_knn_home(points, *k, home);
                fail_blocked(&blocked, home, &mut failed[g]);
            }
            if self.scatter_wave(snap, false, knn.len()) {
                continue;
            }
            // ---- Wave 2: each group's fan-out lanes, seeded by its home
            // results (a clean wave 1 supervised nothing, so `blocked`
            // still holds).
            for (g, (k, points)) in knn.iter().enumerate() {
                let fan = &mut self.knn_fan_groups[g];
                self.planner
                    .route_knn_fanout(points, *k, &self.knn_home_groups[g], fan);
                fail_blocked(&blocked, fan, &mut failed[g]);
            }
            if self.scatter_wave(snap, true, knn.len()) {
                continue;
            }
            break;
        }
        // ---- Deterministic merges, sub-batch by sub-batch.
        let mut report = QueryRunReport::default();
        if !range.is_empty() {
            out.range.reset();
            let stats =
                self.planner
                    .merge_range(range.len(), &mut self.range_lanes, &mut out.range);
            report.range = Some(SubBatchOutcome::Ran(BatchReport {
                stats,
                failed: Vec::new(),
                partial: partial
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(q, &n)| (q as u32, n))
                    .collect(),
            }));
        }
        for (g, (k, points)) in knn.iter().enumerate() {
            out.knn[g].reset();
            let stats = self.planner.merge_knn(
                points.len(),
                *k,
                &mut self.knn_home_groups[g],
                &mut self.knn_fan_groups[g],
                &mut out.knn[g],
            );
            let mut f = std::mem::take(&mut failed[g]);
            f.sort_unstable();
            f.dedup_by_key(|&mut (q, _)| q);
            report.knn.push(SubBatchOutcome::Ran(BatchReport {
                stats,
                failed: f,
                partial: Vec::new(),
            }));
        }
        // The run executed as one combined scatter, so per-sub-batch wall
        // time is not attributable: the whole run's elapsed lands on the
        // first sub-batch and the rest keep the merges' zero, keeping the
        // *summed* execution time honest.
        let first = report.range.iter_mut().chain(report.knn.iter_mut()).next();
        if let Some(SubBatchOutcome::Ran(r)) = first {
            r.stats.elapsed_s = start.elapsed().as_secs_f64();
        }
        report
    }

    /// Forks the copies the writes could not keep level. A write job
    /// already replayed every lane that ran **in place** on its shard's
    /// copy, so a shard **forks** (deep copy, on this thread, replacing —
    /// and thereby freeing — the previous copy) only when it is flagged:
    /// the startup publish, a lane that rebuilt the shard, a restart, a
    /// replay half that panicked or found no copy. Other shards keep their
    /// copy (no clone); dead shards publish nothing. Idempotent per epoch:
    /// a shard's flag clears the moment its fork is installed, so a
    /// scheduler retry after a caught panic finishes what the interrupted
    /// pass had not and repeats nothing. A panic inside the user index's
    /// `Clone` is supervised like a worker panic — the shard restarts from
    /// the planner store and the fork is retried once against the rebuilt
    /// executor.
    fn publish(&mut self, _epoch: u64) {
        if !self.snapshots {
            return;
        }
        for i in 0..self.slots.len() {
            if !self.refork[i] {
                continue;
            }
            // A shard that dies in the retry has an empty live slot, which
            // forks nothing; a fork that fails twice leaves the snapshot
            // slot empty, which blocks snapshot reads until its next write.
            let forked = self.fork_live(i).or_else(|()| {
                self.handle_panics(&[i]);
                self.fork_live(i)
            });
            self.install_snapshot(i, forked.ok().flatten());
        }
    }

    fn update_batch(&mut self, updates: &[(ElementId, Shape)]) -> UpdateReport {
        self.apply_routed("write batch", |planner, lanes| {
            ((), planner.route_updates(updates, lanes))
        })
        .1
    }

    fn insert_batch(&mut self, shapes: &[Shape]) -> (Vec<ElementId>, UpdateReport) {
        self.apply_routed("insert batch", |planner, lanes| {
            planner.route_inserts(shapes, lanes)
        })
    }

    fn remove_batch(&mut self, ids: &[ElementId]) -> UpdateReport {
        self.apply_routed("remove batch", |planner, lanes| {
            ((), planner.route_removals(ids, lanes))
        })
        .1
    }

    fn recover(&mut self, after_write: bool) -> bool {
        // Shard-worker panics never unwind to the dispatcher — they are
        // supervised internally. A panic that *does* cross this backend's
        // boundary happened in routing/merge code on the dispatcher
        // thread: reads re-route from scratch every batch (nothing torn),
        // but a write may have torn the planner's element store mid-route,
        // so the backend must poison.
        !after_write
    }

    fn telemetry(&self) -> BackendTelemetry {
        let mut t = self.telemetry.clone();
        t.worker_steals = self.pool.shared.steals.load(Ordering::Relaxed);
        t.worker_busy_ns = self
            .pool
            .shared
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        t.snapshot_clone_bytes = self.snap_bytes.iter().map(|&b| b as u64).sum();
        t
    }

    fn install_worker_faults(&mut self, faults: &[(usize, u64, FaultKind)]) {
        for &(shard, op, kind) in faults {
            if let Some(list) = self.pool.shared.faults.get(shard) {
                if let Ok(mut l) = list.lock() {
                    l.push((op, kind));
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.planner.memory_bytes()
            + self.shard_memory.iter().sum::<usize>()
            + self
                .range_lanes
                .iter()
                .map(RangeLane::memory_bytes)
                .sum::<usize>()
            + self
                .knn_home_groups
                .iter()
                .chain(self.knn_fan_groups.iter())
                .flatten()
                .map(KnnLane::memory_bytes)
                .sum::<usize>()
            + self
                .update_lanes
                .iter()
                .map(UpdateLane::memory_bytes)
                .sum::<usize>()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        self.sizes.clone()
    }

    fn shutdown(&mut self) {
        self.pool.stop();
    }
}

impl Drop for ShardedBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}
