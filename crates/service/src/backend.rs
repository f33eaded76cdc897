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
//!   published epoch, ahead of every write of its dispatch. Reads and
//!   writes run the engine's own route → wave → merge sequence
//!   ([`ShardSet`]); the backend's runner scatters each wave's lanes as
//!   stealable jobs: each pool worker owns a local deque (a shard's jobs
//!   land on its owner's queue) and steals the oldest job from a sibling
//!   when its own queue drains, so an uneven shard split does not leave
//!   workers idle. Results are byte-identical to a [`ShardedEngine`] run
//!   because they are one code path — only *where* each shard's
//!   sub-batch runs differs.
//!
//! The pool is sized `K = min(parallel::num_threads(), shard count)`
//! workers at spawn, and worker 0 is the thread that scatters a wave (the
//! dispatcher, or whoever calls the backend directly): it runs lanes from
//! the queues until the wave is gathered, so the pool spawns only K − 1
//! threads. A one-worker pool — one shard, `SIMSPATIAL_THREADS=1` or a
//! single-core host — is the same code with no thread at all: the caller
//! runs every lane in its gather, through the same job, fault and
//! supervision code. A one-shard backend is the serial engine the
//! differential suites compare the pool against.

use crate::fault::FaultKind;
use simspatial_geom::{parallel, Aabb, Element, ElementId, Point3};
use simspatial_index::{
    BatchResults, KnnBatchResults, KnnIndex, KnnLane, MemoryParts, QueryStats, RangeLane,
    RestartError, ShardExecutor, ShardPlanner, ShardSet, ShardedEngine, SpatialIndex, UpdateLane,
    UpdateStats, Wave, WriteOp,
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
    /// Panics caught in shard jobs, on a pool thread or on the thread that
    /// gathers the wave.
    pub panics_caught: u64,
    /// Shard executors successfully restarted from their own element
    /// clones after a panic.
    pub shard_restarts: u64,
    /// Shards declared dead: restart budget exhausted, no rebuild path
    /// available, or a clone that disagrees with the route table. Dead
    /// shards are skipped by queries (range/count degrade to partial
    /// coverage; kNN fails typed) and never resurrect.
    pub shards_dead: u64,
    /// Pool jobs executed by a worker other than the owner of the queue
    /// they were scattered to — the work-stealing rebalance counter. The
    /// gathering thread (worker 0) counts the jobs it takes from a pool
    /// thread's queue.
    pub worker_steals: u64,
    /// Per-pool-worker cumulative busy time (nanoseconds spent executing
    /// shard jobs). Entry 0 is the thread that gathers each wave (the
    /// dispatcher, behind a service), entries 1.. the pool threads. Empty
    /// for backends that run no shard jobs.
    pub worker_busy_ns: Vec<u64>,
}

/// What a backend can do beyond answering queries, read once by the
/// scheduler at spawn. A request the backend cannot serve is rejected at
/// admission ([`SubmitError::ReadOnly`](crate::SubmitError)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// [`ServiceBackend::write_batch`] applies writes (`StepDelta`,
    /// `Insert`, `Remove`).
    pub updates: bool,
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

    /// Applies one write run as one ordered batch of [`WriteOp`]s: `Set`s
    /// replace geometry, `Insert`s get fresh element ids (id allocation is
    /// the backend's job — for the sharded backend, the planner's),
    /// `Remove`s tombstone theirs (the ids never come back, and later
    /// writes to them are skipped). Each id's ops resolve in batch order
    /// ([`ShardPlanner::route_writes`]). Returns the allocated ids in batch
    /// order. Called by the scheduler between query runs so the
    /// write-barrier ordering holds. The default (read-only backend)
    /// applies nothing and reports every op skipped — unreachable through
    /// the service, which rejects writes at admission unless
    /// [`Capabilities::updates`] is set.
    fn write_batch(&mut self, ops: &[WriteOp]) -> (Vec<ElementId>, UpdateReport) {
        let stats = UpdateStats {
            skipped: ops.len() as u64,
            ..UpdateStats::default()
        };
        (Vec::new(), stats.into())
    }

    /// Called by the scheduler after a panic unwound out of
    /// [`ServiceBackend::write_batch`] on the dispatcher thread. Returns
    /// `true` when the backend restored a consistent state and can keep
    /// serving; `false` poisons the service — every subsequent request
    /// completes with
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

    /// Structure bytes the backend holds now, read scratch included
    /// (surfaced through `ServiceStats`, where the scheduler reads it at
    /// the end of every run, read or write).
    fn memory_bytes(&self) -> usize;

    /// Elements per shard now (one entry for a one-shard backend); read
    /// by the scheduler at the end of every run.
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
    /// Bytes held by the executor, by part (the shard-memory gauge).
    fn memory_parts(&self) -> MemoryParts;
    /// Elements held by the executor (the shard-size gauge).
    fn len(&self) -> usize;
    /// Restarts the torn executor of shard `shard` from its own element
    /// clone, replaying `torn`, the write lane it panicked in, if any
    /// ([`ShardExecutor::restart`]).
    fn restart(
        &mut self,
        planner: &ShardPlanner,
        shard: usize,
        torn: Option<&mut UpdateLane>,
    ) -> Result<(), RestartError>;
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

    fn memory_parts(&self) -> MemoryParts {
        ShardExecutor::memory_parts(self)
    }

    fn len(&self) -> usize {
        ShardExecutor::len(self)
    }

    fn restart(
        &mut self,
        planner: &ShardPlanner,
        shard: usize,
        torn: Option<&mut UpdateLane>,
    ) -> Result<(), RestartError> {
        ShardExecutor::restart(self, planner, shard, torn)
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
    /// restarts the shard from its own element clone.
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

impl PoolState {
    /// `worker`'s next job: the front of its own queue, else the back of
    /// the first non-empty sibling queue — `true` marks that steal.
    fn take(&mut self, worker: usize) -> Option<(PoolJob, bool)> {
        if let Some(job) = self.queues[worker].pop_front() {
            return Some((job, false));
        }
        let n = self.queues.len();
        (1..n)
            .find_map(|d| self.queues[(worker + d) % n].pop_back())
            .map(|job| (job, true))
    }
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

/// The work-stealing worker pool of a [`ShardedBackend`]: `K = min(threads,
/// shards)` workers executing shard jobs from per-worker local deques,
/// with idle workers stealing across queues. Worker 0 is the thread that
/// scatters a wave: it runs jobs while it gathers them
/// ([`WorkerPool::recv_done`]), so the pool spawns only the K − 1 threads
/// `simspatial-pool-1..K-1` — and a one-worker pool none.
struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Completions sent back by the pool threads.
    done_rx: mpsc::Receiver<PoolJob>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns the pool over one slot per runner:
    /// `min(parallel::num_threads(), shards)` workers (at least one), of
    /// which all but worker 0 get a thread.
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
        let (done_tx, done_rx) = mpsc::channel::<PoolJob>();
        let handles = (1..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let done_tx = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("simspatial-pool-{w}"))
                    .spawn(move || pool_worker_loop(w, &shared, &done_tx))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self {
            shared,
            done_rx,
            handles,
        }
    }

    /// Number of pool workers, the gathering thread included (one per
    /// busy-time gauge, so the count survives `stop`).
    fn workers(&self) -> usize {
        self.shared.busy_ns.len()
    }

    /// Enqueues one job onto its shard's owner queue and wakes a worker.
    fn submit(&mut self, shard: usize, job: Job) {
        let mut state = self.shared.lock_state();
        assert!(!state.shutdown, "backend already shut down");
        let owner = shard % state.queues.len();
        state.queues[owner].push_back(PoolJob {
            shard,
            job,
            panicked: false,
        });
        drop(state);
        self.shared.work_available.notify_one();
    }

    /// Receives one completion, working as worker 0 until one is there: a
    /// completion a pool thread already sent comes first; otherwise the
    /// caller takes worker 0's next job (the front of queue 0, else a
    /// steal) and runs it. It blocks only once every queue is empty, when
    /// the jobs still in flight are running on pool threads. Every
    /// scattered job produces exactly one completion (panicked jobs
    /// included), so a gather of `in_flight` `recv_done` calls never hangs.
    fn recv_done(&mut self) -> PoolJob {
        if let Ok(done) = self.done_rx.try_recv() {
            return done;
        }
        let next = self.shared.lock_state().take(0);
        match next {
            Some((job, stolen)) => run_job(&self.shared, 0, job, stolen),
            None => self
                .done_rx
                .recv()
                .expect("pool threads outlive in-flight jobs"),
        }
    }

    /// Stops and joins every pool thread. Idempotent.
    fn stop(&mut self) {
        self.shared.lock_state().shutdown = true;
        self.shared.work_available.notify_all();
        for t in self.handles.drain(..) {
            let _ = t.join();
        }
    }
}

/// One pool thread: take its next job ([`PoolState::take`]), sleep on the
/// condvar when every queue is empty, and run each job through
/// [`run_job`].
fn pool_worker_loop(worker: usize, shared: &PoolShared, done_tx: &mpsc::Sender<PoolJob>) {
    loop {
        let (job, stolen) = {
            let mut state = shared.lock_state();
            loop {
                if let Some(next) = state.take(worker) {
                    break next;
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
        if done_tx.send(run_job(shared, worker, job, stolen)).is_err() {
            return; // the backend is gone; nothing left to report to
        }
    }
}

/// Runs one pool job as `worker` — a pool thread, or the gathering thread
/// as worker 0: the lane runs on its shard's slot under the shard's next
/// job number (see [`Slot::jobs`]), firing the fault a plan scheduled
/// there, its time is charged to `worker`, and a `stolen` job counts as a
/// steal.
///
/// The lane runs under `catch_unwind` (over an `AssertUnwindSafe` closure
/// — the executor never crosses the boundary again after a panic): a
/// panicking job marks the slot torn (the executor may be torn
/// mid-update, so the only safe continuation is a supervisor rebuild) and
/// still comes back, with `panicked` set.
fn run_job(shared: &PoolShared, worker: usize, job: PoolJob, stolen: bool) -> PoolJob {
    let PoolJob { shard, mut job, .. } = job;
    if stolen {
        shared.steals.fetch_add(1, Ordering::Relaxed);
    }
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

/// A region-sharded backend executing on a **work-stealing worker pool**:
/// a [`ShardedEngine`]'s executors parked in the pool's slots, behind a
/// [`ShardSet`] whose runner scatters each wave's lanes as stealable jobs,
/// gathers and supervises them; the gathering thread runs lanes as pool
/// worker 0 while it waits. Results are byte-identical to running the
/// same `ShardedEngine`: reads and writes are the engine's own
/// [`ShardSet::read`] and [`ShardSet::write`] — only *where* each shard's
/// sub-batch runs differs.
pub struct ShardedBackend {
    shards: ShardSet<Supervised>,
    /// Whether every executor had a rebuild function attached
    /// (`ShardedEngine::with_rebuild`) — the write path needs it.
    updatable: bool,
}

/// The executors of a [`ShardedBackend`]: parked in the worker pool's
/// slots under supervision.
struct Supervised {
    pool: WorkerPool,
    policy: SupervisorPolicy,
    /// Remaining lifetime restart budget per shard.
    restarts_left: Vec<u32>,
    /// Shards whose restart budget is exhausted (or that panicked with no
    /// rebuild path). Dead shards never resurrect.
    dead: Vec<bool>,
    telemetry: BackendTelemetry,
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
        let updatable = engine.is_updatable();
        let (planner, executors) = engine.into_parts();
        let n = executors.len();
        let runners = executors.into_iter().map(|exec| Box::new(exec) as _);
        let supervised = Supervised {
            pool: WorkerPool::spawn(runners.collect()),
            restarts_left: vec![policy.max_restarts; n],
            policy,
            dead: vec![false; n],
            telemetry: BackendTelemetry::default(),
        };
        Self {
            shards: ShardSet::from_parts(planner, supervised),
            updatable,
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
        self.shards.shard_count()
    }

    /// Number of pool workers executing shard jobs, the thread that calls
    /// the backend (worker 0) included: the pool runs `pool_workers() - 1`
    /// threads.
    pub fn pool_workers(&self) -> usize {
        self.shards.executors().pool.workers()
    }

    /// [`ServiceBackend::memory_bytes`] by part: the planner's route table
    /// and merge scratch, the lanes, and the shards' element clones, id
    /// maps, indexes and engine scratch. The shard parts are read from
    /// each live executor under its slot lock; a dead shard holds nothing.
    pub fn memory_parts(&self) -> MemoryParts {
        self.shards.plan_memory_parts()
            + self
                .shards
                .executors()
                .read_runners(|runner| {
                    runner.map_or_else(MemoryParts::default, |r| r.memory_parts())
                })
                .sum::<MemoryParts>()
    }

    /// Indices of shards declared dead by the supervisor.
    pub fn dead_shards(&self) -> Vec<usize> {
        let dead = &self.shards.executors().dead;
        (0..dead.len()).filter(|&i| dead[i]).collect()
    }
}

impl Supervised {
    /// `read` applied to each shard's runner (`None` once dead), in shard
    /// order, each under its slot lock. Called between waves, when no job
    /// holds a slot.
    fn read_runners<'a, T: 'a>(
        &'a self,
        read: impl Fn(Option<&dyn RunnerCore>) -> T + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        (0..self.pool.shared.slots.len())
            .map(move |i| read(self.pool.shared.lock_slot(i).runner.as_deref()))
    }

    /// The backend's runner: drops the lanes aimed at dead shards,
    /// scatters the rest as stealable jobs (empty lanes skip the round
    /// trip), gathers each back into its slot of `wave` — a panicked lane
    /// too, torn results and all: a torn read is re-routed, and a torn
    /// write lane is what the shard's restart replays — and supervises the
    /// shards that panicked, which it returns sorted.
    fn run_wave(&mut self, planner: &ShardPlanner, wave: Wave<'_>) -> Vec<usize> {
        let Wave { range, knn, update } = wave;
        let mut in_flight = 0usize;
        for (i, lane) in range.iter_mut().enumerate() {
            if self.dead[i] {
                lane.clear();
            } else if !lane.is_empty() {
                self.pool.submit(i, Job::Range(std::mem::take(lane)));
                in_flight += 1;
            }
        }
        for (i, lane) in knn.iter_mut().enumerate() {
            if self.dead[i] {
                lane.clear();
            } else if !lane.is_empty() {
                self.pool.submit(i, Job::Knn(std::mem::take(lane)));
                in_flight += 1;
            }
        }
        for (i, lane) in update.iter_mut().enumerate() {
            if self.dead[i] {
                lane.clear();
            } else if !lane.is_empty() {
                self.pool.submit(i, Job::Update(std::mem::take(lane)));
                in_flight += 1;
            }
        }
        let mut panicked = Vec::new();
        for _ in 0..in_flight {
            let PoolJob {
                shard,
                job,
                panicked: p,
            } = self.pool.recv_done();
            if p {
                panicked.push(shard);
            }
            match job {
                Job::Range(lane) => range[shard] = lane,
                Job::Knn(lane) => knn[shard] = lane,
                Job::Update(lane) => update[shard] = lane,
            }
        }
        // One supervision verdict per shard: a torn shard's several
        // in-flight jobs fold into one entry.
        panicked.sort_unstable();
        panicked.dedup();
        self.handle_panics(planner, &panicked, update);
        panicked
    }

    /// Quarantine → restart → dead transition for every shard in
    /// `panicked`: restarts the torn executor from its own element clone
    /// ([`ShardExecutor::restart`]), replaying the shard's write lane from
    /// `update` when the wave carried one, under the restart budget, with
    /// exponential backoff between consecutive failing attempts. A shard
    /// that cannot be restarted (budget exhausted, no rebuild recipe, or a
    /// clone that disagrees with the route table) is declared dead and
    /// drops its executor. Runs strictly after a gather completed, so no
    /// job of these shards is in flight while the slot is rebuilt.
    fn handle_panics(
        &mut self,
        planner: &ShardPlanner,
        panicked: &[usize],
        update: &mut [UpdateLane],
    ) {
        for &i in panicked {
            if self.dead[i] {
                continue;
            }
            self.telemetry.panics_caught += 1;
            let mut slot = self.pool.shared.lock_slot(i);
            let runner = slot.runner.as_mut().expect("a live shard has a runner");
            let mut torn = update.get_mut(i);
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
                // not take down the supervisor, and the next attempt finds
                // the clone where this one left it.
                let lane = torn.as_deref_mut();
                match catch_unwind(AssertUnwindSafe(|| runner.restart(planner, i, lane))) {
                    Ok(Ok(())) => {
                        self.telemetry.shard_restarts += 1;
                        restarted = true;
                        break;
                    }
                    // No recipe, or a clone with nothing to repair it from.
                    Ok(Err(_)) => break,
                    Err(_) => continue,
                }
            }
            slot.torn = !restarted;
            if !restarted {
                slot.runner = None;
                self.dead[i] = true;
                self.telemetry.shards_dead += 1;
            }
        }
    }
}

impl ServiceBackend for ShardedBackend {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            updates: self.updatable,
        }
    }

    /// The one read path: [`ShardSet::read`] on the pool, so the range and
    /// the kNN home lanes of a run overlap in **one wave**. Lanes aimed at
    /// dead shards are dropped: partial coverage for range, a typed
    /// failure for kNN, where partial neighbours would be silently wrong.
    /// A snapshot run executes like a live one: the scheduler runs it only
    /// while live state is the last published epoch.
    fn query_run(
        &mut self,
        run: &QueryRun,
        _snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        let start = Instant::now();
        let (range, knn) = (&run.range, &run.knn);
        if !range.is_empty() {
            out.range.reset();
        }
        if !knn.is_empty() {
            out.knn.reset();
        }
        let mut partial = vec![0u32; range.len()];
        let mut failed = Vec::new();
        let runner = |planner: &ShardPlanner, shards: &mut Supervised, wave: Wave<'_>| {
            for (i, lane) in wave.range.iter().enumerate() {
                if shards.dead[i] {
                    lane.routed()
                        .iter()
                        .for_each(|&qi| partial[qi as usize] += 1);
                }
            }
            for (i, lane) in wave.knn.iter().enumerate() {
                if shards.dead[i] {
                    failed.extend(lane.routed().iter().map(|&qi| (qi, i)));
                }
            }
            let whole = shards.run_wave(planner, wave).is_empty();
            if !whole {
                // The read re-routes from scratch.
                partial.fill(0);
                failed.clear();
            }
            whole
        };
        let (range_stats, knn_stats) =
            self.shards
                .read(range, knn, &mut out.range, &mut out.knn, runner);
        let mut report = QueryRunReport::default();
        if !range.is_empty() {
            report.range = Some(BatchReport {
                stats: range_stats,
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
            failed.sort_unstable();
            failed.dedup_by_key(|&mut (q, _)| q);
            report.knn = Some(BatchReport {
                stats: knn_stats,
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

    /// The one write path: [`ShardSet::write`] on the pool.
    /// [`UpdateReport::failed`] names the first shard that ended **dead**,
    /// if any — the typed write failure. A lane aimed at an already-dead
    /// shard is dropped without failing the batch: coverage is already
    /// degraded, and the route table has advanced all the same.
    fn write_batch(&mut self, ops: &[WriteOp]) -> (Vec<ElementId>, UpdateReport) {
        // Fail on the calling thread, before the planner advances: the
        // service never routes writes here when read-only, but the trait
        // is public.
        assert!(
            self.updatable,
            "write batch on a read-only sharded backend — build the engine with_rebuild"
        );
        let mut failed = None;
        let (ids, stats) = self.shards.write(ops, |planner, shards, wave| {
            let panicked = shards.run_wave(planner, wave);
            failed = panicked.iter().copied().find(|&i| shards.dead[i]);
            panicked.is_empty()
        });
        (ids, UpdateReport { stats, failed })
    }

    // `recover` stays at the trait default. Lane panics never unwind out
    // of the backend — `run_job` catches them on whichever worker runs the
    // lane, and they are supervised internally — so a write panic that
    // does cross this boundary happened in routing code on the dispatcher
    // thread and may have torn the planner's route table mid-route: the
    // backend must poison.

    fn telemetry(&self) -> BackendTelemetry {
        let shards = self.shards.executors();
        let mut t = shards.telemetry.clone();
        t.worker_steals = shards.pool.shared.steals.load(Ordering::Relaxed);
        t.worker_busy_ns = shards
            .pool
            .shared
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        t
    }

    fn install_worker_faults(&mut self, faults: &[(usize, u64, FaultKind)]) {
        let pool = &self.shards.executors().pool;
        for &(shard, op, kind) in faults {
            if shard < self.shard_count() {
                pool.shared.lock_slot(shard).faults.push((op, kind));
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.memory_parts().total()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .executors()
            .read_runners(|runner| runner.map_or(0, |r| r.len()))
            .collect()
    }

    fn shutdown(&mut self) {
        self.shards.executors_mut().pool.stop();
    }
}

impl Drop for ShardedBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}
