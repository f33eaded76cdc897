//! Execution backends the scheduler dispatches coalesced batches to.
//!
//! The scheduler is backend-agnostic and has **one read path**: every run
//! of queries between two write barriers goes to the backend as a single
//! [`ServiceBackend::query_run`] call — live, or against the last published
//! epoch. What a backend can do beyond reads it states once, as
//! [`Capabilities`]. One engine-backed implementation ships, beside the
//! [`ChaosBackend`](crate::ChaosBackend) fault-injecting wrapper:
//!
//! * [`ShardedBackend`] — a [`ShardedEngine`] split into its
//!   [`ShardPlanner`] and per-shard
//!   [`ShardExecutor`](simspatial_index::ShardExecutor)s, executed on a
//!   **work-stealing worker pool**. Each shard has one slot in the pool —
//!   its executor, its job clock and its scheduled faults — that reads and
//!   writes alike run against. Snapshot runs need no copy of the
//!   executor: the scheduler runs one only while live state *is* the last
//!   published epoch, ahead of every write of its dispatch. The dispatcher
//!   routes a run into per-shard lanes and
//!   scatters them as stealable jobs: each pool worker owns a local deque
//!   (a shard's jobs land on its owner's queue) and steals the oldest job
//!   from a sibling when its own queue drains, so an uneven shard split
//!   does not leave workers idle. There is one scatter/gather/supervise/
//!   merge loop, and every `query_run`, live or snapshot, goes through
//!   it. Results stay byte-identical to a serial [`ShardedEngine`] run:
//!   routing, execution plans and the deduplicating merges are the exact
//!   same code — only *where* each shard's sub-batch runs changes.
//!
//! The pool is sized `min(parallel::num_threads(), shard count)` at spawn,
//! so a backend never spawns more threads than it has shards to run. A
//! one-worker pool — one shard, `SIMSPATIAL_THREADS=1` or a single-core
//! host — spawns no thread at all: each lane runs inline on the thread
//! that scatters it (the dispatcher), through the same job, fault and
//! supervision code, without cross-thread ping-pong. A one-shard backend
//! is the serial engine the differential suites compare the pool against.

use crate::fault::FaultKind;
use simspatial_geom::{parallel, Aabb, Element, ElementId, Point3, Shape};
use simspatial_index::{
    BatchResults, KnnBatchResults, KnnIndex, KnnLane, QueryStats, RangeLane, ShardExecutor,
    ShardPlanner, ShardedEngine, SpatialIndex, UpdateLane, UpdateStats,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Panics caught in shard jobs, on a pool thread or (one-worker pool)
    /// on the dispatcher.
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
    /// shard jobs). A one-worker pool runs its jobs on the dispatcher and
    /// charges them to worker 0. Empty for backends that run no shard jobs.
    pub worker_busy_ns: Vec<u64>,
}

/// What a backend can do beyond answering queries, read once by the
/// scheduler at spawn. A request the backend cannot serve is rejected at
/// admission ([`SubmitError::ReadOnly`](crate::SubmitError)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// `update_batch` applies geometry writes (`StepDelta`).
    pub updates: bool,
    /// `insert_batch` / `remove_batch` change membership (`Insert`/`Remove`).
    pub membership: bool,
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
/// requests between two write barriers, flattened into at most two
/// sub-batches — every range box, and every kNN probe with its own `k`.
/// Built by the scheduler, executed in one call through
/// [`ServiceBackend::query_run`], which is what lets a backend run the
/// two sub-batches concurrently.
#[derive(Debug, Default)]
pub struct QueryRun {
    /// Every range/count box of the run, in admission order.
    pub range: Vec<Aabb>,
    /// Every `(point, k)` kNN probe of the run, in admission order.
    pub knn: Vec<(Point3, usize)>,
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
    /// Results of the kNN sub-batch (one neighbour list per probe).
    pub knn: KnnBatchResults,
}

/// The reports of one [`ServiceBackend::query_run`] call, one per
/// sub-batch; `None` for a sub-batch the run did not carry or whose
/// results were lost.
#[derive(Debug, Clone, Default)]
pub struct QueryRunReport {
    /// Report of the range sub-batch.
    pub range: Option<BatchReport>,
    /// Report of the kNN sub-batch.
    pub knn: Option<BatchReport>,
}

/// A batch execution target for the service scheduler.
///
/// Contract mirrors the engine layer: a [`QueryRun`]'s range sub-batch
/// fills one id list per query (in plan emission order), its kNN
/// sub-batch one ascending `(distance, id)` list per probe. What a backend
/// serves beyond reads it states in [`ServiceBackend::capabilities`].
pub trait ServiceBackend: Send + 'static {
    /// What this backend can do beyond reads.
    fn capabilities(&self) -> Capabilities;

    /// Executes one whole [`QueryRun`] — its range and its kNN sub-batch,
    /// between two write barriers — resetting each non-empty sub-batch's
    /// buffer first and reporting it in [`QueryRunReport`].
    /// [`BatchReport::partial`] flags queries answered with reduced
    /// shard coverage, [`BatchReport::failed`] queries that must complete
    /// with a typed error. With `snapshot` set the run answers at the
    /// **last published epoch**. The scheduler runs a snapshot run only
    /// while live state is that epoch (never between a write and the epoch
    /// it advances), so a backend answers it exactly like a live run. The
    /// flag lets a wrapper tell the two apart:
    /// [`ChaosBackend`](crate::ChaosBackend) keeps snapshot runs out of its
    /// op-keyed fault schedule.
    /// Each query's and each probe's answer must be independent of its
    /// batch-mates: byte-identical to running it alone.
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

    /// Called by the scheduler after a panic unwound out of a write call
    /// (`update_batch`, `insert_batch`, `remove_batch`) on the dispatcher
    /// thread. Returns `true` when the backend restored a consistent state
    /// and can keep serving; `false` poisons the service — every subsequent
    /// request completes with
    /// [`RecvError::WorkerFailed`](crate::RecvError::WorkerFailed) instead
    /// of touching a possibly-corrupt backend. A read panic needs no
    /// recovery: reads mutate no durable state.
    ///
    /// The default is honest for a generic backend: the batch may be
    /// half-applied with no way to verify, so it refuses.
    fn recover(&mut self) -> bool {
        false
    }

    /// Cumulative supervision counters (panics caught on worker threads,
    /// shard restarts, shards dead). Pulled into
    /// [`ServiceStats`](crate::ServiceStats) after every dispatch.
    fn telemetry(&self) -> BackendTelemetry {
        BackendTelemetry::default()
    }

    /// Installs deterministic worker-level faults (`(shard, job sequence,
    /// kind)` triples) into the backend's shard jobs — the test-only hook
    /// [`ChaosBackend`](crate::ChaosBackend) uses to schedule shard
    /// crashes and stalls. Backends that run no shard jobs ignore it.
    fn install_worker_faults(&mut self, _faults: &[(usize, u64, FaultKind)]) {}

    /// Structure bytes the backend holds (surfaced through `ServiceStats`;
    /// refreshed after every update application, so post-migration shrink
    /// is visible).
    fn memory_bytes(&self) -> usize;

    /// Elements per shard (one entry for a one-shard backend); refreshed
    /// after every update application.
    fn shard_sizes(&self) -> Vec<usize>;

    /// Stops any worker threads. Called once by the scheduler on orderly
    /// shutdown; must be idempotent.
    fn shutdown(&mut self) {}
}

/// The name the benchmark ladder still spells for a one-shard backend over
/// a prebuilt index ([`ShardedBackend::new`]); new code names
/// [`ShardedBackend`].
pub type EngineBackend = ShardedBackend;

/// A routed lane travelling to a shard worker (to execute) and back (with
/// results filled) — the same type in both directions, so lane allocations
/// recycle across dispatches without re-wrapping.
enum Job {
    Range(RangeLane),
    Knn(KnnLane),
    Update(UpdateLane),
}

/// A job travelling through the worker pool and back: the shard whose
/// executor must run it, the lane (results filled on success, torn on
/// panic — the gather never uses a panicked lane's contents) and whether
/// the job panicked. A worker always sends the job back, even one it
/// failed — that is the no-hang guarantee: the gather's `recv` is matched
/// by exactly one returned job per job scattered.
struct PoolJob {
    shard: usize,
    job: Job,
    panicked: bool,
}

/// The type-erased per-shard execution core a pool worker calls: runs any
/// lane variant against the shard's executor without the backend knowing
/// the index type.
trait RunnerCore: Send {
    /// Runs one routed lane against the executor.
    fn run(&mut self, job: &mut Job);
    /// Bytes held by the executor (the shard-memory gauge after a restart).
    fn memory_bytes(&self) -> usize;
    /// Elements held by the executor (the shard-size gauge after a restart).
    fn len(&self) -> usize;
    /// Replaces the executor by shard `shard`'s rebuild from the planner's
    /// element store, with its own recipe
    /// ([`ShardExecutor::rebuilt_from`]). `false` when it has no recipe.
    fn restart(&mut self, planner: &ShardPlanner, shard: usize) -> bool;
}

/// A boxed [`RunnerCore`] — what executor slots hold.
type ShardRunner = Box<dyn RunnerCore>;

impl<I: SpatialIndex + KnnIndex + Send + 'static> RunnerCore for ShardExecutor<I> {
    fn run(&mut self, job: &mut Job) {
        match job {
            Job::Range(lane) => lane.run(self),
            Job::Knn(lane) => lane.run(self),
            Job::Update(lane) => lane.run(self),
        }
    }

    fn memory_bytes(&self) -> usize {
        ShardExecutor::memory_bytes(self)
    }

    fn len(&self) -> usize {
        ShardExecutor::len(self)
    }

    fn restart(&mut self, planner: &ShardPlanner, shard: usize) -> bool {
        self.rebuilt_from(planner, shard)
            .map(|exec| *self = exec)
            .is_some()
    }
}

/// One shard's home in the pool: everything a shard job reads or writes,
/// shared between the backend (supervision: restart, declare dead) and
/// whoever runs the shard's jobs. The slot mutex also serialises same-shard
/// jobs when a scatter put more than one in flight (the range and the kNN
/// lane of one query run).
struct Slot {
    /// The shard's executor; `None` only once the shard is dead.
    runner: Option<ShardRunner>,
    /// A job panicked inside `runner`, which may be torn mid-update: later
    /// jobs report `panicked` without running until the supervisor
    /// restarts the shard from the planner's retained element store.
    torn: bool,
    /// The fault plan's per-shard job clock. **Every** pool job of the
    /// shard draws one number — write lanes, live reads and snapshot reads
    /// alike — and the clock spans restarts, so a fault schedule spans
    /// executor incarnations deterministically.
    jobs: u64,
    /// Scheduled worker-level faults `(job number, kind)`.
    faults: Vec<(u64, FaultKind)>,
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
    /// One slot per shard.
    slots: Vec<Mutex<Slot>>,
}

impl PoolShared {
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_slot(&self, shard: usize) -> MutexGuard<'_, Slot> {
        // A panic can never unwind while the guard is held (job panics are
        // caught inside), but stay robust against poisoning anyway.
        self.slots[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The work-stealing worker pool of a [`ShardedBackend`]: `min(threads,
/// shards)` persistent workers executing shard jobs from per-worker local
/// deques, with idle workers stealing across queues. A one-worker pool
/// spawns no thread: the caller runs each job as worker 0 when it submits
/// it.
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Workers,
}

/// Where a pool's jobs run.
enum Workers {
    /// Two or more pool threads; completions come back over the channel.
    Threads {
        done_rx: mpsc::Receiver<PoolJob>,
        handles: Vec<JoinHandle<()>>,
    },
    /// No thread: `submit` ran each job on the calling thread, and its
    /// completion waits here for `recv_done`.
    Inline { done: VecDeque<PoolJob> },
}

impl WorkerPool {
    /// Spawns the pool over one slot per runner:
    /// `min(parallel::num_threads(), shards)` workers (at least one) — or
    /// no thread at all when that is one worker.
    fn spawn(runners: Vec<ShardRunner>) -> Self {
        let workers = parallel::num_threads().min(runners.len().max(1)).max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
            steals: AtomicU64::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            slots: runners
                .into_iter()
                .map(|runner| {
                    Mutex::new(Slot {
                        runner: Some(runner),
                        torn: false,
                        jobs: 0,
                        faults: Vec::new(),
                    })
                })
                .collect(),
        });
        let workers = if workers == 1 {
            Workers::Inline {
                done: VecDeque::new(),
            }
        } else {
            let (done_tx, done_rx) = mpsc::channel::<PoolJob>();
            let handles = (0..workers)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    let done_tx = done_tx.clone();
                    std::thread::Builder::new()
                        .name(format!("simspatial-pool-{w}"))
                        .spawn(move || pool_worker_loop(w, &shared, &done_tx))
                        .expect("spawn pool worker thread")
                })
                .collect();
            Workers::Threads { done_rx, handles }
        };
        Self { shared, workers }
    }

    /// Number of pool workers (one per busy-time gauge, so the count
    /// survives `stop`).
    fn workers(&self) -> usize {
        self.shared.busy_ns.len()
    }

    /// Enqueues one job onto its shard's owner queue and wakes a worker —
    /// or, in a one-worker pool, runs it right here as worker 0.
    fn submit(&mut self, shard: usize, job: Job) {
        let job = PoolJob {
            shard,
            job,
            panicked: false,
        };
        match &mut self.workers {
            Workers::Inline { done } => done.push_back(run_job(&self.shared, 0, job)),
            Workers::Threads { .. } => {
                let mut state = self.shared.lock_state();
                assert!(!state.shutdown, "backend already shut down");
                let owner = shard % state.queues.len();
                state.queues[owner].push_back(job);
                drop(state);
                self.shared.work_available.notify_one();
            }
        }
    }

    /// Receives one completion. Every scattered job produces exactly one
    /// (panicked jobs included), so a gather of `in_flight` `recv_done`
    /// calls never hangs.
    fn recv_done(&mut self) -> PoolJob {
        match &mut self.workers {
            Workers::Inline { done } => done.pop_front().expect("one completion per job"),
            Workers::Threads { done_rx, .. } => {
                done_rx.recv().expect("pool workers outlive in-flight jobs")
            }
        }
    }

    /// Stops and joins every worker. Idempotent.
    fn stop(&mut self) {
        self.shared.lock_state().shutdown = true;
        self.shared.work_available.notify_all();
        if let Workers::Threads { handles, .. } = &mut self.workers {
            for t in handles.drain(..) {
                let _ = t.join();
            }
        }
    }
}

/// One pool worker: pop the front of the own queue, steal the back of a
/// sibling's otherwise, sleep on the condvar when everything is empty, and
/// run each job through [`run_job`].
fn pool_worker_loop(worker: usize, shared: &PoolShared, done_tx: &mpsc::Sender<PoolJob>) {
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
        if done_tx.send(run_job(shared, worker, pool_job)).is_err() {
            return; // the backend is gone; nothing left to report to
        }
    }
}

/// Runs one pool job as `worker`, on a pool thread or inline: the lane
/// runs on its shard's slot under the shard's next job number (see
/// [`Slot::jobs`]), firing the fault a plan scheduled there, and its time
/// is charged to `worker`.
///
/// The lane runs under `catch_unwind` (over an `AssertUnwindSafe` closure
/// — the executor never crosses the boundary again after a panic): a
/// panicking job marks the slot torn (the executor may be torn
/// mid-update, so the only safe continuation is a supervisor rebuild) and
/// still comes back, with `panicked` set.
fn run_job(shared: &PoolShared, worker: usize, job: PoolJob) -> PoolJob {
    let PoolJob { shard, mut job, .. } = job;
    let started = Instant::now();
    let mut slot = shared.lock_slot(shard);
    let seq = slot.jobs;
    slot.jobs += 1;
    let fault = slot
        .faults
        .iter()
        .find(|&&(at, _)| at == seq)
        .map(|&(_, k)| k);
    let Slot { runner, torn, .. } = &mut *slot;
    let panicked = match runner {
        Some(runner) if !*torn => catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(FaultKind::Panic) => {
                    panic!("chaos: injected fault on shard {shard}, job {seq}")
                }
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                _ => {}
            }
            runner.run(&mut job)
        }))
        .is_err(),
        // Torn since the scatter (an earlier in-flight job panicked), or
        // dead: report as panicked without running — the supervisor decides.
        _ => true,
    };
    *torn |= panicked;
    drop(slot);
    shared.busy_ns[worker].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    PoolJob {
        shard,
        job,
        panicked,
    }
}

/// A region-sharded backend executing on a **work-stealing worker pool**.
/// Built by splitting a [`ShardedEngine`] into planner + executors
/// ([`ShardedEngine::into_parts`]) and parking each executor in its
/// shard's pool slot, which the pool workers run jobs against; the
/// scheduler-side half routes, scatters lanes as stealable jobs, gathers,
/// and merges. A one-worker pool runs the lanes on the scheduler thread
/// itself.
///
/// Results are byte-identical to running the same `ShardedEngine`
/// serially: routing, execution plans and the deduplicating merge are the
/// exact same code — only *where* each shard's sub-batch runs changes.
pub struct ShardedBackend {
    planner: ShardPlanner,
    pool: WorkerPool,
    sizes: Vec<usize>,
    /// Per-shard structure bytes, captured at spawn and refreshed from the
    /// [`UpdateLane`] reports after every write batch — so post-migration
    /// shrink is reflected even though the executors live in the slots.
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
    range_lanes: Vec<RangeLane>,
    knn_home: Vec<KnnLane>,
    knn_fan: Vec<KnnLane>,
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

    /// The same as [`ShardedBackend::spawn`]: every backend serves
    /// snapshot reads, from the live executors, so there is nothing left to
    /// opt into. Kept for callers written when snapshots were opt-in.
    pub fn spawn_snapshot<I: SpatialIndex + KnnIndex + Send + 'static>(
        engine: ShardedEngine<I>,
    ) -> Self {
        Self::spawn(engine)
    }

    /// [`ShardedBackend::spawn`] with an explicit restart discipline.
    pub fn spawn_with<I: SpatialIndex + KnnIndex + Send + 'static>(
        engine: ShardedEngine<I>,
        policy: SupervisorPolicy,
    ) -> Self {
        let sizes = engine.shard_sizes();
        let updatable = engine.is_updatable();
        let (planner, executors) = engine.into_parts();
        let shard_memory: Vec<usize> = executors.iter().map(ShardExecutor::memory_bytes).collect();
        let n = executors.len();
        let runners = executors.into_iter().map(|exec| Box::new(exec) as _);
        Self {
            planner,
            pool: WorkerPool::spawn(runners.collect()),
            sizes,
            shard_memory,
            updatable,
            restarts_left: vec![policy.max_restarts; n],
            policy,
            dead: vec![false; n],
            telemetry: BackendTelemetry::default(),
            range_lanes: Vec::new(),
            knn_home: Vec::new(),
            knn_fan: Vec::new(),
            update_lanes: Vec::new(),
        }
    }

    /// A read-only one-shard backend over `data` (`element.id ==
    /// position`) served by a prebuilt `index` over it. The one shard takes
    /// every element in id order, so its clone is `data` and `index` fits
    /// it as built.
    pub fn new<I: SpatialIndex + KnnIndex + Send + 'static>(data: Vec<Element>, index: I) -> Self {
        let index = Cell::new(Some(index));
        let build = |_: &[Element]| index.take().expect("one shard builds one index");
        Self::spawn(ShardedEngine::build(&data, 1, build))
    }

    /// Number of shards (live, quarantined, or dead).
    pub fn shard_count(&self) -> usize {
        self.dead.len()
    }

    /// Number of pool workers executing shard jobs; a one-worker pool runs
    /// them on the thread that calls the backend.
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
    /// `panicked`: rebuilds the torn executor in place from the planner's
    /// element store with its own recipe, under the restart budget, with
    /// exponential backoff between consecutive failing attempts. A shard
    /// that cannot be restarted (budget exhausted, rebuild itself
    /// panicking, or no rebuild recipe at all) is declared dead and drops
    /// its executor. Runs strictly after a gather completed, so no job of
    /// these shards is in flight while the slot is rebuilt.
    fn handle_panics(&mut self, panicked: &[usize]) {
        // One supervision verdict per shard: `panicked` arrives deduplicated
        // (`gather` folds the several in-flight jobs of one torn shard).
        for &i in panicked {
            if self.dead[i] {
                continue;
            }
            self.telemetry.panics_caught += 1;
            let mut slot = self.pool.shared.lock_slot(i);
            let runner = slot.runner.as_mut().expect("a live shard has a runner");
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
                // The rebuild recipe is user code: a panic inside it must
                // not take down the supervisor.
                match catch_unwind(AssertUnwindSafe(|| runner.restart(&self.planner, i))) {
                    Ok(true) => {
                        self.shard_memory[i] = runner.memory_bytes();
                        self.sizes[i] = runner.len();
                        self.telemetry.shard_restarts += 1;
                        restarted = true;
                        break;
                    }
                    Ok(false) => break,
                    Err(_) => continue,
                }
            }
            slot.torn = !restarted;
            if !restarted {
                slot.runner = None;
                self.dead[i] = true;
                self.telemetry.shards_dead += 1;
                self.sizes[i] = 0;
                self.shard_memory[i] = 0;
            }
        }
    }

    /// Gathers the `in_flight` completions of a wave from the pool,
    /// routing each lane back to its shard's scratch slot: range lanes to
    /// `range_lanes`, update lanes to `update_lanes`, kNN lanes to
    /// `knn_home` or (`fan_phase`) `knn_fan`. Returns the panicked shards,
    /// sorted and deduplicated.
    fn gather(&mut self, in_flight: usize, fan_phase: bool) -> Vec<usize> {
        let mut panicked = Vec::new();
        for _ in 0..in_flight {
            let PoolJob {
                shard,
                job,
                panicked: p,
            } = self.pool.recv_done();
            match job {
                Job::Range(lane) => self.range_lanes[shard] = lane,
                Job::Update(lane) => self.update_lanes[shard] = lane,
                Job::Knn(lane) if fan_phase => self.knn_fan[shard] = lane,
                Job::Knn(lane) => self.knn_home[shard] = lane,
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
    /// the planner and fills the update lanes, which then scatter, are
    /// supervised, and fold their write-amplification counters into the
    /// report. [`UpdateReport::failed`] names the first shard that ended
    /// **dead**, if any — the typed write failure.
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
            self.pool.submit(i, Job::Update(std::mem::take(lane)));
            in_flight += 1;
        }
        let panicked = self.gather(in_flight, false);
        for (i, lane) in self.update_lanes.iter().enumerate() {
            if lane.is_empty() || panicked.binary_search(&i).is_ok() {
                continue;
            }
            let report = lane.report();
            self.sizes[i] = report.len_after;
            self.shard_memory[i] = report.memory_bytes;
            report.fold_into(&mut stats);
        }
        self.handle_panics(&panicked);
        let failed = panicked.iter().copied().find(|&i| self.dead[i]);
        stats.elapsed_s = start.elapsed().as_secs_f64();
        (value, UpdateReport { stats, failed })
    }

    /// Scatters one wave of the routed run onto the pool — wave 1
    /// (`fan_phase == false`): every non-empty range lane, then the kNN
    /// home lanes; wave 2: the kNN fan-out lanes — and waits for all of it
    /// to come back (empty lanes skip the round trip). One shard's jobs
    /// serialise on its executor slot;
    /// independent shards (and stolen jobs) overlap. Returns `true` when a
    /// job panicked: the shard was quarantined and restarted (or declared
    /// dead), its lanes carry torn results, and the run must be re-routed
    /// against the post-supervision shard set.
    fn scatter_wave(&mut self, fan_phase: bool) -> bool {
        let mut in_flight = 0usize;
        if !fan_phase {
            for (i, lane) in self.range_lanes.iter_mut().enumerate() {
                if !lane.is_empty() {
                    self.pool.submit(i, Job::Range(std::mem::take(lane)));
                    in_flight += 1;
                }
            }
        }
        let knn = if fan_phase {
            &mut self.knn_fan
        } else {
            &mut self.knn_home
        };
        for (i, lane) in knn.iter_mut().enumerate() {
            if !lane.is_empty() {
                self.pool.submit(i, Job::Knn(std::mem::take(lane)));
                in_flight += 1;
            }
        }
        let panicked = self.gather(in_flight, fan_phase);
        self.handle_panics(&panicked);
        !panicked.is_empty()
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
        }
    }

    /// The one read path. The whole run — range batch plus kNN batch —
    /// scatters onto the worker pool as **one wave** of shard jobs, so the
    /// two sub-batches overlap across cores instead of executing
    /// back-to-back. kNN fan-out (which needs the home results as seeds)
    /// forms a second wave. The merges run on the backend thread
    /// afterwards and are the same deterministic code a serial
    /// [`ShardedEngine`] runs, so results are byte-identical to it. A
    /// snapshot run executes like a live one: the scheduler runs it only
    /// while live state is the last published epoch.
    fn query_run(
        &mut self,
        run: &QueryRun,
        _snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        let start = Instant::now();
        let (range, knn) = (&run.range, &run.knn);
        // Reads are idempotent, so supervision is a retry loop over the
        // whole run: any panic is supervised inside `scatter_wave` and the
        // run re-routes from scratch.
        let mut partial = vec![0u32; range.len()];
        let mut failed = Vec::new();
        loop {
            // ---- Wave 1: the range lanes plus the kNN home lanes, minus
            // lanes aimed at blocked shards — partial coverage for range;
            // typed failure for kNN, where partial neighbours would be
            // silently wrong.
            let blocked = self.dead.clone();
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
            failed.clear();
            self.planner.route_knn_home(knn, &mut self.knn_home);
            fail_blocked(&blocked, &mut self.knn_home, &mut failed);
            if self.scatter_wave(false) {
                continue;
            }
            // ---- Wave 2: the kNN fan-out lanes, seeded by the home
            // results (a clean wave 1 supervised nothing, so `blocked`
            // still holds).
            self.planner
                .route_knn_fanout(knn, &self.knn_home, &mut self.knn_fan);
            fail_blocked(&blocked, &mut self.knn_fan, &mut failed);
            if self.scatter_wave(true) {
                continue;
            }
            break;
        }
        // ---- Deterministic merges, one per non-empty sub-batch.
        let mut report = QueryRunReport::default();
        if !range.is_empty() {
            out.range.reset();
            let stats =
                self.planner
                    .merge_range(range.len(), &mut self.range_lanes, &mut out.range);
            report.range = Some(BatchReport {
                stats,
                failed: Vec::new(),
                partial: partial
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(q, &n)| (q as u32, n))
                    .collect(),
            });
        }
        if !knn.is_empty() {
            out.knn.reset();
            let stats =
                self.planner
                    .merge_knn(knn, &mut self.knn_home, &mut self.knn_fan, &mut out.knn);
            failed.sort_unstable();
            failed.dedup_by_key(|&mut (q, _)| q);
            report.knn = Some(BatchReport {
                stats,
                failed,
                partial: Vec::new(),
            });
        }
        // The run executed as one combined scatter, so per-sub-batch wall
        // time is not attributable: the whole run's elapsed lands on the
        // first sub-batch and the other keeps the merge's zero, keeping
        // the *summed* execution time honest.
        if let Some(r) = report.range.as_mut().or(report.knn.as_mut()) {
            r.stats.elapsed_s = start.elapsed().as_secs_f64();
        }
        report
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

    // `recover` stays at the trait default. Lane panics never unwind out
    // of the backend — `run_job` catches them, inline or on a pool thread,
    // and they are supervised internally — so a write panic that does
    // cross this boundary happened in routing code on the dispatcher
    // thread and may have torn the planner's element store mid-route: the
    // backend must poison.

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
        t
    }

    fn install_worker_faults(&mut self, faults: &[(usize, u64, FaultKind)]) {
        for &(shard, op, kind) in faults {
            if shard < self.shard_count() {
                self.pool.shared.lock_slot(shard).faults.push((op, kind));
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
                .knn_home
                .iter()
                .chain(self.knn_fan.iter())
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
