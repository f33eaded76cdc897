//! The service front door and the micro-batching scheduler.
//!
//! Clients clone a [`ServiceHandle`] and submit [`Request`]s into a
//! **bounded** intake queue through one entry point,
//! [`ServiceHandle::submit_with`] (admission control: a blocking submit
//! applies backpressure, a [`SubmitOptions::nonblocking`] one reports
//! `Full`). A single scheduler thread drains the queue, **coalesces** up
//! to `max_batch` concurrent requests (waiting at most `max_wait` for
//! stragglers once the first is in hand), executes the merged batches
//! against the backend as ordered runs, splits the results back per
//! request, and completes each run's tickets when the run ends — a reply
//! never waits for the runs queued behind it.
//!
//! Coalescing is what converts independent client traffic into the wide
//! SoA batches the kernel layer is fastest at: all range boxes of one
//! dispatch run as **one** range sub-batch, and all kNN probes, each with
//! its own `k`, as one kNN sub-batch. Per-request result order is identical
//! to a serial engine run, because the coalesced batch preserves each
//! request's query order and the batch plans are deterministic.
//!
//! Shutdown is orderly: [`SpatialService::shutdown`] (and `Drop`) flips
//! the admission flag — new submissions fail fast with
//! [`SubmitError::ShutDown`] — then the scheduler drains every request
//! already admitted before exiting, so accepted work is completed, not
//! dropped. (Only a submission that races the flag *and* loses its
//! dispatcher sees its ticket error with `RecvError::ShutDown`.)

use crate::backend::{BatchReport, Capabilities, QueryRun, QueryRunResults, ServiceBackend};
use crate::request::{Completion, Consistency, RecvError, Request, Response, SubmitError, Ticket};
use crate::stats::{ServiceStats, BATCH_BUCKETS};
use simspatial_geom::stats::PredicateCounts;
use simspatial_geom::Shape;
use simspatial_index::{UpdateStats, WriteOp};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the idle scheduler re-checks the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound of the intake queue (requests). Once this many requests are
    /// pending, a blocking submit waits and a nonblocking one is rejected
    /// with [`SubmitError::Full`].
    pub queue_cap: usize,
    /// Maximum requests coalesced into one dispatch. `1` = micro-batching
    /// off: every request dispatches alone (the differential suites'
    /// baseline; `service.coalesce_mean` in `BENCHMARK.json` prices the
    /// default).
    pub max_batch: usize,
    /// How long a **lone** request waits for company before dispatching
    /// alone. A dispatch already holding two or more requests never
    /// waits: the scheduler drains whatever is queued and executes.
    pub max_wait: Duration,
    /// Deadline applied to every request that does not carry its own
    /// ([`SubmitOptions::deadline`]). `None` = requests never expire.
    /// Expired requests are shed before dispatch when possible and
    /// complete with [`RecvError::DeadlineExceeded`] either way.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            default_deadline: None,
        }
    }
}

impl ServiceConfig {
    /// Returns the config with coalescing disabled (`max_batch = 1`).
    pub fn no_coalesce(mut self) -> Self {
        self.max_batch = 1;
        self
    }

    /// Returns the config with the given intake queue bound.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Returns the config with the given coalescing window.
    pub fn with_batching(mut self, max_batch: usize, max_wait: Duration) -> Self {
        self.max_batch = max_batch.max(1);
        self.max_wait = max_wait;
        self
    }

    /// Returns the config with the given default request deadline.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }
}

/// Per-request submission options for [`ServiceHandle::submit_with`] —
/// the in-process mirror of the wire request header.
/// `SubmitOptions::default()` is what [`ServiceHandle::submit`] does:
/// [`Consistency::Barrier`], the config's default deadline, blocking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// How a read is ordered against the write barriers around it; a read
    /// that tolerates bounded staleness passes [`Consistency::Snapshot`]
    /// and stops paying for barriers it never asked to observe. Writes
    /// ignore it: every write is a barrier and publishes an epoch.
    pub consistency: Consistency,
    /// Deadline measured from submission, overriding
    /// [`ServiceConfig::default_deadline`]; `None` keeps the config's. An
    /// expired request completes with [`RecvError::DeadlineExceeded`] —
    /// shed before the backend sees it when it expires in the queue.
    pub deadline: Option<Duration>,
    /// Return [`SubmitError::Full`] (with the request) instead of waiting
    /// when the intake queue is at capacity.
    pub nonblocking: bool,
}

/// One queued request plus its completion channel, admission timestamp and
/// (optional) absolute deadline.
///
/// The envelope doubles as the **exactly-once completion guard**: a ticket
/// is completed either explicitly through [`Envelope::complete`] (which
/// takes the reply sender, so the envelope stays in the dispatch marked
/// completed) or, if the envelope is dropped with the sender still in
/// place — scheduler unwind, drain abort, any exit path — by the `Drop`
/// impl, with a typed error. An admitted ticket therefore never hangs and
/// never receives two completions.
struct Envelope {
    request: Request,
    consistency: Consistency,
    /// The reply sender; `None` once the ticket is completed.
    reply: Option<mpsc::Sender<Completion>>,
    submitted: Instant,
    deadline: Option<Instant>,
    shared: Arc<Shared>,
}

impl Envelope {
    /// Completes the ticket exactly once and disarms the drop-guard.
    fn complete(&mut self, result: Result<Response, RecvError>, shards_skipped: u32, epoch: u64) {
        let latency = self.submitted.elapsed();
        if let Some(reply) = self.reply.take() {
            // A dropped ticket (client gave up) is not an error.
            let _ = reply.send(Completion {
                result,
                latency,
                shards_skipped,
                epoch,
            });
        }
    }
}

impl Drop for Envelope {
    fn drop(&mut self) {
        let Some(reply) = self.reply.take() else {
            return; // completed normally
        };
        // Straggler path: the scheduler died (dispatcher panic) or exited
        // without serving this envelope. Classify by the service's dead
        // flag, set before unwinding envelopes drop (see `DeadGuard`).
        let err = if self.shared.dead.load(Ordering::Acquire) {
            RecvError::WorkerFailed { shard: 0 }
        } else {
            RecvError::ShutDown
        };
        // Counted before it is sent, like every other reply.
        if let Ok(mut inner) = self.shared.stats.lock() {
            inner.stats.completed += 1;
            inner.stats.failed_requests += 1;
        }
        let _ = reply.send(Completion {
            result: Err(err),
            latency: self.submitted.elapsed(),
            shards_skipped: 0,
            epoch: 0,
        });
    }
}

/// Scheduler-side counters, only ever touched under the lock by the
/// dispatcher thread (briefly, once per run) and by stats snapshots —
/// the submit hot path uses the lock-free atomics on [`Shared`] instead.
#[derive(Default)]
struct Counters {
    /// The counters as the dispatcher last flushed them. The four
    /// admission fields stay zero here (they live in [`Shared`]'s atomics)
    /// and `panics_caught` holds only the backend-supervised share;
    /// [`Shared::snapshot`] overlays both.
    stats: ServiceStats,
    /// Backend panics that unwound to the dispatcher thread and were
    /// caught there (distinct from the panics the backend supervises
    /// internally, which arrive via its telemetry).
    sched_panics: u64,
}

/// State shared by every handle, the service, and the scheduler thread.
struct Shared {
    open: AtomicBool,
    /// Set when the dispatcher died abnormally (unwinding panic) or the
    /// backend was poisoned by a write-path panic — stragglers then
    /// complete with [`RecvError::WorkerFailed`] instead of `ShutDown`.
    dead: AtomicBool,
    /// The backend's capabilities, read once at spawn.
    caps: Capabilities,
    /// Deadline stamped onto requests that do not carry their own.
    default_deadline: Option<Duration>,
    /// The intake queue bound, surfaced in [`SubmitError::Full`] so
    /// rejected clients can scale their backoff to actual congestion.
    queue_cap: usize,
    queue_depth: AtomicUsize,
    // Admission-path counters are atomics so producer submits never
    // contend with the dispatcher's per-dispatch stats update.
    submitted: AtomicU64,
    rejected: AtomicU64,
    max_queue_depth: AtomicUsize,
    stats: Mutex<Counters>,
}

impl Shared {
    fn snapshot(&self) -> ServiceStats {
        let inner = self.stats.lock().expect("stats lock");
        let mut stats = inner.stats.clone();
        stats.panics_caught += inner.sched_panics;
        drop(inner);
        stats.submitted = self.submitted.load(Ordering::Relaxed);
        stats.rejected = self.rejected.load(Ordering::Relaxed);
        stats.queue_depth = self.queue_depth.load(Ordering::Acquire);
        stats.max_queue_depth = self.max_queue_depth.load(Ordering::Relaxed);
        stats
    }
}

/// A cloneable client-side handle: submit requests, read stats. All clones
/// share one service; dropping handles never stops the service (see
/// [`SpatialService::shutdown`]).
pub struct ServiceHandle {
    tx: mpsc::SyncSender<Envelope>,
    shared: Arc<Shared>,
}

impl Clone for ServiceHandle {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
        }
    }
}

impl ServiceHandle {
    /// [`ServiceHandle::submit_with`] at the default [`SubmitOptions`]:
    /// [`Consistency::Barrier`], the config's default deadline, blocking.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.submit_with(request, SubmitOptions::default())
    }

    /// [`ServiceHandle::submit`] at an explicit [`Consistency`].
    pub fn submit_at(
        &self,
        request: Request,
        consistency: Consistency,
    ) -> Result<Ticket, SubmitError> {
        self.submit_with(
            request,
            SubmitOptions {
                consistency,
                ..SubmitOptions::default()
            },
        )
    }

    /// Submits a request under `options`, returning its completion ticket.
    /// A blocking submit waits while the intake queue is full
    /// (admission-control backpressure); a nonblocking one returns
    /// [`SubmitError::Full`]. Either way the request comes back if the
    /// service is shut down or its backend cannot serve it
    /// ([`SubmitError::ReadOnly`]).
    pub fn submit_with(
        &self,
        request: Request,
        options: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        if !self.shared.open.load(Ordering::Acquire) {
            return Err(SubmitError::ShutDown(request));
        }
        let caps = self.shared.caps;
        if request.is_write() && !caps.updates {
            return Err(SubmitError::ReadOnly(request));
        }
        let (reply, rx) = mpsc::channel();
        let submitted = Instant::now();
        let deadline = options
            .deadline
            .or(self.shared.default_deadline)
            .map(|d| submitted + d);
        let env = Envelope {
            request,
            consistency: options.consistency,
            reply: Some(reply),
            submitted,
            deadline,
            shared: Arc::clone(&self.shared),
        };
        let depth = self.shared.queue_depth.fetch_add(1, Ordering::AcqRel) + 1;
        let sent = if options.nonblocking {
            self.tx.try_send(env).map_err(|e| match e {
                mpsc::TrySendError::Full(env) => (env, true),
                mpsc::TrySendError::Disconnected(env) => (env, false),
            })
        } else {
            self.tx
                .send(env)
                .map_err(|mpsc::SendError(env)| (env, false))
        };
        match sent {
            Ok(()) => {
                self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .max_queue_depth
                    .fetch_max(depth, Ordering::Relaxed);
                Ok(Ticket { rx })
            }
            Err((env, full)) => Err(self.reject(env, full)),
        }
    }

    /// Hands a request the intake queue refused back to its submitter:
    /// [`SubmitError::Full`] when the queue was at capacity, `ShutDown`
    /// when the scheduler is gone.
    fn reject(&self, mut env: Envelope, full: bool) -> SubmitError {
        // Undo our own provisional increment; what remains is the
        // congestion a rejected client should back off against.
        let depth = self
            .shared
            .queue_depth
            .fetch_sub(1, Ordering::AcqRel)
            .saturating_sub(1);
        // The request goes back un-completed: dropping the reply sender
        // here must not fire the straggler guard.
        env.reply = None;
        let request = std::mem::replace(&mut env.request, Request::Range(Vec::new()));
        if !full {
            return SubmitError::ShutDown(request);
        }
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        SubmitError::Full {
            request,
            depth,
            capacity: self.shared.queue_cap,
            high_water: self.shared.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// True while the service accepts submissions.
    pub fn is_open(&self) -> bool {
        self.shared.open.load(Ordering::Acquire)
    }

    /// Current intake queue depth (admitted, not yet drained by the
    /// dispatcher). A lock-free gauge — cheap enough for admission-control
    /// front ends to read per request.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth.load(Ordering::Acquire)
    }

    /// The intake queue bound this service was configured with
    /// ([`ServiceConfig::queue_cap`]). `queue_depth() / queue_capacity()`
    /// is the congestion fraction backoff hints should scale with.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_cap
    }

    /// What the backend behind this service can do; a request it cannot
    /// serve returns [`SubmitError::ReadOnly`].
    pub fn capabilities(&self) -> Capabilities {
        self.shared.caps
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.snapshot()
    }
}

/// The scheduler state living on the dispatcher thread.
struct Scheduler<B: ServiceBackend> {
    backend: B,
    shared: Arc<Shared>,
    cfg: ServiceConfig,
    // Dispatch scratch, reused across cycles.
    pending: Vec<Envelope>,
    responses: Vec<Option<Response>>,
    /// The coalesced query run under construction/execution: every range
    /// box and every kNN probe of the run, handed to the backend in ONE
    /// `query_run` call so a parallel backend can overlap the two
    /// sub-batches.
    run: QueryRun,
    run_out: QueryRunResults,
    /// `(pending idx, first box, box count)` per range-family request.
    range_req: Vec<(usize, usize, usize)>,
    /// `(pending idx, first probe, probe count)` per kNN request.
    knn_req: Vec<(usize, usize, usize)>,
    /// The ordered write batch of the current write run.
    ops: Vec<WriteOp>,
    /// Per-pending-request failure slot for the current dispatch: a
    /// request with a failure set is excluded from backend batches and
    /// completes with that error.
    failures: Vec<Option<RecvError>>,
    /// Per-pending-request dead-shards-skipped count (partial coverage).
    skipped: Vec<u32>,
    /// Per-pending-request epoch stamp for the current dispatch: the
    /// published epoch a read ran against, or the epoch whose publication
    /// made a write visible.
    epochs: Vec<u64>,
    /// The last **published** epoch: 0 at startup, advanced after every
    /// write application while the service is healthy, so whenever no
    /// write is mid-application the live dataset *is* the published
    /// epoch's state — which is why a snapshot run needs no copy.
    epoch: u64,
    /// Set when a backend panic unwound to the dispatcher on a write path
    /// the backend could not recover: the dataset state is unknown, so
    /// every subsequent request fails fast with
    /// [`RecvError::WorkerFailed`] until shutdown.
    poisoned: bool,
}

/// Accounting accrued since the dispatcher last flushed [`Counters`]: each
/// run's completion ([`Scheduler::complete_run`]) folds it in, in the same
/// critical section that counts the run's replies, and resets it.
#[derive(Default)]
struct DispatchTotals {
    /// Requests coalesced into the dispatch; nonzero only until the
    /// dispatch's first flush, which counts the dispatch itself.
    requests: usize,
    exec_elapsed_s: f64,
    results: u64,
    counts: PredicateCounts,
    update: UpdateStats,
    /// Coalesced update counts per backend application (feeds the update
    /// batch-size histogram).
    update_runs: Vec<usize>,
    /// Backend panics that unwound into the dispatcher and were caught.
    sched_panics: u64,
    /// Reads served from a published snapshot.
    snapshot_reads: u64,
    /// Snapshot reads hoisted over at least one pending write barrier.
    stale_reads: u64,
}

/// Declared in [`Scheduler::run`] before the dispatch loop: if the
/// dispatcher thread unwinds past it (a panic the per-call `catch_unwind`s
/// did not absorb), the guard marks the service dead **before** the
/// scheduler's pending envelopes drop — locals drop before function
/// parameters — so their straggler completions classify as
/// [`RecvError::WorkerFailed`], not a clean shutdown, and new submissions
/// stop being admitted.
struct DeadGuard {
    shared: Arc<Shared>,
    armed: bool,
}

impl Drop for DeadGuard {
    fn drop(&mut self) {
        if self.armed {
            self.shared.dead.store(true, Ordering::Release);
            self.shared.open.store(false, Ordering::Release);
            if let Ok(mut inner) = self.shared.stats.lock() {
                inner.sched_panics += 1;
            }
        }
    }
}

/// Folds one sub-batch of a query run into the requests it coalesced
/// (`reqs`: `(pending idx, first query, query count)`). A report accounts
/// the sub-batch and fails or flags the owners of its failed and partial
/// queries — a kNN probe over a dead shard fails its whole request, since
/// partial neighbour lists would be silently wrong. No report fails every
/// request, unless the sub-batch had no queries and so nothing to lose.
fn settle(
    reqs: &[(usize, usize, usize)],
    report: Option<&BatchReport>,
    totals: &mut DispatchTotals,
    failures: &mut [Option<RecvError>],
    skipped: &mut [u32],
) {
    let Some(r) = report else {
        if reqs.iter().any(|&(.., len)| len > 0) {
            for &(i, ..) in reqs {
                failures[i] = Some(RecvError::WorkerFailed { shard: 0 });
            }
        }
        return;
    };
    totals.exec_elapsed_s += r.stats.elapsed_s;
    totals.results += r.stats.results;
    totals.counts.add(&r.stats.counts);
    // The request owning coalesced query `q`.
    let owner = |q: u32| {
        let q = q as usize;
        let mut owners = reqs.iter();
        owners
            .find(|&&(_, s, l)| (s..s + l).contains(&q))
            .map(|&(i, ..)| i)
    };
    for &(q, shard) in &r.failed {
        if let Some(i) = owner(q) {
            failures[i] = Some(RecvError::WorkerFailed { shard });
        }
    }
    for &(q, n_skipped) in &r.partial {
        if let Some(i) = owner(q) {
            skipped[i] += n_skipped;
        }
    }
}

impl<B: ServiceBackend> Scheduler<B> {
    fn new(backend: B, shared: Arc<Shared>, cfg: ServiceConfig) -> Self {
        Self {
            backend,
            shared,
            cfg,
            pending: Vec::new(),
            responses: Vec::new(),
            run: QueryRun::default(),
            run_out: QueryRunResults::default(),
            range_req: Vec::new(),
            knn_req: Vec::new(),
            ops: Vec::new(),
            failures: Vec::new(),
            skipped: Vec::new(),
            epochs: Vec::new(),
            epoch: 0,
            poisoned: false,
        }
    }

    fn run(mut self, rx: mpsc::Receiver<Envelope>) {
        let mut guard = DeadGuard {
            shared: Arc::clone(&self.shared),
            armed: true,
        };
        loop {
            match rx.recv_timeout(IDLE_POLL) {
                Ok(env) => self.collect_and_dispatch(env, &rx),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if !self.shared.open.load(Ordering::Acquire) {
                        break;
                    }
                }
                // Every handle AND the owning service are gone: nothing can
                // ever submit again.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Orderly drain: everything admitted before the flag flipped (and
        // any sender that was blocked on the bounded queue and completes
        // while we drain) still gets served.
        while let Ok(env) = rx.try_recv() {
            self.collect_and_dispatch(env, &rx);
        }
        self.backend.shutdown();
        guard.armed = false;
    }

    /// Eagerly drains up to `max_batch - 1` more queued requests behind
    /// `first`, then dispatches the coalesced batch. The scheduler never
    /// stalls a batch it already holds: only a **lone** request waits (up
    /// to `max_wait`) for company — once at least two requests are in
    /// hand, an empty queue triggers immediate dispatch, so pipelined
    /// closed-loop traffic coalesces without paying added latency.
    fn collect_and_dispatch(&mut self, first: Envelope, rx: &mpsc::Receiver<Envelope>) {
        self.pending.clear();
        self.pending.push(first);
        if self.cfg.max_batch > 1 {
            let deadline = Instant::now() + self.cfg.max_wait;
            while self.pending.len() < self.cfg.max_batch {
                match rx.try_recv() {
                    Ok(env) => self.pending.push(env),
                    Err(mpsc::TryRecvError::Empty) => {
                        if self.pending.len() > 1 {
                            break; // have a batch: go, don't trade latency
                        }
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match rx.recv_timeout(deadline - now) {
                            Ok(env) => self.pending.push(env),
                            Err(_) => break,
                        }
                    }
                    Err(mpsc::TryRecvError::Disconnected) => break,
                }
            }
        }
        self.shared
            .queue_depth
            .fetch_sub(self.pending.len(), Ordering::AcqRel);
        self.dispatch();
    }

    /// Executes one coalesced dispatch. The pending requests are processed
    /// as consecutive **runs** in admission order: maximal runs of query
    /// requests coalesce into one backend query run each, and maximal runs
    /// of write requests into one ordered backend write each (see
    /// [`Scheduler::run_write_batch`]). Runs execute strictly in order, so
    /// every write request is a barrier: queries admitted before it see
    /// pre-write state, queries admitted after it see post-write state —
    /// the dispatch is observationally identical to a serial run of the
    /// requests in admission order. Each run's requests complete as soon
    /// as the run ends ([`Scheduler::complete_run`]): a read's reply never
    /// waits for the writes behind it, and a write's ack leaves right after
    /// the write, stamped with the epoch it advanced to.
    fn dispatch(&mut self) {
        let n = self.pending.len();
        self.responses.clear();
        self.responses.resize_with(n, || None);
        self.failures.clear();
        self.failures.resize(n, None);
        self.skipped.clear();
        self.skipped.resize(n, 0);
        self.epochs.clear();
        self.epochs.resize(n, self.epoch);
        let mut totals = DispatchTotals {
            requests: n,
            ..DispatchTotals::default()
        };

        // ---- Admission-time deadline shed: a request that expired in the
        // queue is excluded from every backend batch below — the backend
        // never sees it.
        let now = Instant::now();
        for (i, env) in self.pending.iter().enumerate() {
            if env.deadline.is_some_and(|d| now >= d) {
                self.failures[i] = Some(RecvError::DeadlineExceeded);
            }
        }

        // ---- Snapshot hoist: reads that asked for (at most) the last
        // published epoch do not belong behind this dispatch's write
        // barriers — they are pulled out of admission order and executed
        // first, as ONE snapshot query run, and complete before the first
        // barrier run starts. Running first is what makes them snapshot
        // reads: no write of this dispatch has applied yet, so live state
        // is the last published epoch. This is what unserializes reads
        // from writes: a hoisted read's latency never includes the write
        // applications queued behind it. `ReadYourWrites` hoists once its
        // floor is published (acks carry the publishing epoch, so an honest
        // client always hoists) and degrades to the barrier path otherwise
        // — strictly fresher than asked. Everything else (`Barrier` reads,
        // all writes) keeps today's strict admission-order semantics.
        let mut barrier_idx: Vec<usize> = Vec::with_capacity(n);
        let mut snap_idx: Vec<usize> = Vec::new();
        if !self.poisoned {
            let first_write = self
                .pending
                .iter()
                .enumerate()
                .position(|(i, env)| env.request.is_write() && self.failures[i].is_none());
            for (i, env) in self.pending.iter().enumerate() {
                let hoist = !env.request.is_write()
                    && self.failures[i].is_none()
                    && match env.consistency {
                        Consistency::Snapshot => true,
                        Consistency::ReadYourWrites { min_epoch } => min_epoch <= self.epoch,
                        Consistency::Barrier => false,
                    };
                if hoist {
                    snap_idx.push(i);
                    totals.snapshot_reads += 1;
                    if first_write.is_some_and(|w| i > w) {
                        // The read outran at least one write admitted
                        // before it: its answer is (deliberately) stale.
                        totals.stale_reads += 1;
                    }
                } else {
                    barrier_idx.push(i);
                }
            }
        } else {
            barrier_idx.extend(0..n);
        }
        if !snap_idx.is_empty() {
            // Stamped with the epoch they run against (resize above
            // already stamped `self.epoch`; writes below may advance it).
            self.run_query_batch(&snap_idx, &mut totals, true);
            self.complete_run(&snap_idx, &mut totals);
        }

        let mut lo = 0usize;
        while lo < barrier_idx.len() {
            if self.poisoned {
                // Backend state is unknown after an unrecovered write-path
                // panic: fail everything not yet served, fast.
                self.fail_rest(&barrier_idx[lo..], 0);
                self.complete_run(&barrier_idx[lo..], &mut totals);
                break;
            }
            let write = self.pending[barrier_idx[lo]].request.is_write();
            let mut hi = lo + 1;
            while hi < barrier_idx.len()
                && self.pending[barrier_idx[hi]].request.is_write() == write
            {
                hi += 1;
            }
            let idxs = &barrier_idx[lo..hi];
            if write {
                self.run_write_batch(idxs, &mut totals);
            } else {
                // Barrier reads run against the live dataset, whose state
                // is exactly the last published epoch at this point.
                for &i in idxs {
                    self.epochs[i] = self.epoch;
                }
                self.run_query_batch(idxs, &mut totals, false);
                self.complete_run(idxs, &mut totals);
            }
            lo = hi;
        }
        debug_assert!(self.pending.iter().all(|env| env.reply.is_none()));
        self.pending.clear();
    }

    /// Completes the requests of `idxs` not completed yet — the end of a
    /// run. Classifies each outcome (deadline at completion, failure,
    /// partial coverage), then flushes, under ONE stats-lock acquisition,
    /// everything a client holding one of these replies could observe: the
    /// request counters and latencies, the accounting `totals` accrued
    /// since the last flush, the epoch counters, the backend telemetry and
    /// the backend's memory and shard-size gauges, read before the lock.
    /// Tickets complete only after the lock is released, so a reply is
    /// always counted in `stats()` before its client holds it, and
    /// producer submits never wait behind the reply sends. The drop-guard
    /// of every envelope not completed here stays armed.
    fn complete_run(&mut self, idxs: &[usize], totals: &mut DispatchTotals) {
        if idxs.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut completed = 0u64;
        let mut deadline_expired = 0u64;
        let mut failed_requests = 0u64;
        let mut partial_responses = 0u64;
        for &i in idxs {
            let env = &self.pending[i];
            if env.reply.is_none() {
                continue;
            }
            completed += 1;
            if self.failures[i].is_none() && env.deadline.is_some_and(|d| now >= d) {
                self.failures[i] = Some(RecvError::DeadlineExceeded);
            }
            match self.failures[i] {
                Some(RecvError::DeadlineExceeded) => deadline_expired += 1,
                Some(_) => failed_requests += 1,
                None => {
                    if self.skipped[i] > 0 {
                        partial_responses += 1;
                    }
                }
            }
        }
        let totals = std::mem::take(totals);
        let telemetry = self.backend.telemetry();
        // Read after every run: a read can grow scratch, as a write can
        // move elements between shards.
        let memory_bytes = self.backend.memory_bytes();
        let shard_sizes = self.backend.shard_sizes();
        {
            let mut inner = self.shared.stats.lock().expect("stats lock");
            inner.sched_panics += totals.sched_panics;
            let stats = &mut inner.stats;
            if totals.requests > 0 {
                stats.dispatches += 1;
                stats.coalesced_requests += totals.requests as u64;
                let bucket = (usize::BITS - 1 - totals.requests.leading_zeros()) as usize;
                stats.batch_hist[bucket.min(BATCH_BUCKETS - 1)] += 1;
            }
            stats.exec_elapsed_s += totals.exec_elapsed_s;
            stats.results += totals.results;
            stats.counts.add(&totals.counts);
            stats.updates_applied += totals.update.applied;
            stats.migrations += totals.update.migrations;
            stats.updates_skipped += totals.update.skipped;
            stats.updates_shipped += totals.update.shipped;
            stats.structural_touches += totals.update.structural;
            stats.updates_absorbed += totals.update.absorbed;
            stats.shard_rebuilds += totals.update.rebuilds;
            stats.rebuilds_avoided += totals.update.rebuilds_avoided;
            stats.spliced += totals.update.spliced;
            stats.elements_inserted += totals.update.inserted;
            stats.elements_removed += totals.update.removed;
            for &sz in &totals.update_runs {
                stats.update_dispatches += 1;
                stats.coalesced_updates += sz as u64;
                let b = (usize::BITS - 1 - sz.max(1).leading_zeros()) as usize;
                stats.update_hist[b.min(BATCH_BUCKETS - 1)] += 1;
            }
            stats.memory_bytes = memory_bytes;
            stats.shard_sizes = shard_sizes;
            stats.deadline_expired += deadline_expired;
            stats.failed_requests += failed_requests;
            stats.partial_responses += partial_responses;
            stats.snapshot_reads += totals.snapshot_reads;
            stats.stale_reads += totals.stale_reads;
            stats.current_epoch = self.epoch;
            stats.epochs_published = self.epoch + 1;
            stats.panics_caught = telemetry.panics_caught;
            stats.shard_restarts = telemetry.shard_restarts;
            stats.shards_dead = telemetry.shards_dead;
            stats.worker_steals = telemetry.worker_steals;
            stats.worker_busy_ns = telemetry.worker_busy_ns;
            stats.completed += completed;
            for &i in idxs {
                let env = &self.pending[i];
                if env.reply.is_some() {
                    stats.latency.record(env.submitted.elapsed());
                }
            }
        }

        // Exactly once: a completed envelope has no reply sender left, and
        // a request with no failure must have a response.
        for &i in idxs {
            if self.pending[i].reply.is_none() {
                continue;
            }
            let result = match self.failures[i].take() {
                Some(err) => Err(err),
                None => Ok(self.responses[i]
                    .take()
                    .expect("every surviving request produced a response")),
            };
            self.pending[i].complete(result, self.skipped[i], self.epochs[i]);
        }
    }

    /// Executes one query run (`pending[idxs]`, all non-write): all range
    /// boxes of the run coalesce into one range sub-batch and all kNN
    /// probes, each keeping its own `k`, into one kNN sub-batch; the whole
    /// run goes to the backend in ONE [`ServiceBackend::query_run`] call —
    /// so a parallel backend can overlap the two sub-batches — before
    /// results split back per request. With `snap` set the run executes
    /// against the last published epoch instead of the live dataset.
    fn run_query_batch(&mut self, idxs: &[usize], totals: &mut DispatchTotals, snap: bool) {
        // ---- Build the run, in admission order.
        let run = &mut self.run;
        run.range.clear();
        run.knn.clear();
        self.range_req.clear();
        self.knn_req.clear();
        for &i in idxs {
            if self.failures[i].is_some() {
                continue; // shed at admission — the backend never sees it
            }
            match &self.pending[i].request {
                Request::Range(qs) | Request::RangeCount(qs) => {
                    self.range_req.push((i, run.range.len(), qs.len()));
                    run.range.extend_from_slice(qs);
                }
                Request::Knn(probes) => {
                    self.knn_req.push((i, run.knn.len(), probes.len()));
                    run.knn.extend_from_slice(probes);
                }
                _ => unreachable!("query runs hold no writes"),
            }
        }

        // ---- Execute the whole run through one backend call. A panic that
        // unwinds out of it fails the entire run; so does a sub-batch the
        // backend did not report or whose result count is not its query
        // count (a lost response). A read mutates no durable state, so the
        // backend keeps serving either way.
        let report = if run.is_empty() {
            Default::default()
        } else {
            let call = catch_unwind(AssertUnwindSafe(|| {
                self.backend.query_run(&self.run, snap, &mut self.run_out)
            }));
            match call {
                Ok(report) => report,
                Err(_) => {
                    totals.sched_panics += 1;
                    self.fail_rest(idxs, 0);
                    return;
                }
            }
        };
        let (run, out) = (&self.run, &self.run_out);
        let range = report.range.filter(|_| out.range.len() == run.range.len());
        let knn = report.knn.filter(|_| out.knn.len() == run.knn.len());
        for (reqs, report) in [(&self.range_req, range), (&self.knn_req, knn)] {
            settle(
                reqs,
                report.as_ref(),
                totals,
                &mut self.failures,
                &mut self.skipped,
            );
        }

        // ---- Split the results back per request.
        for &(i, start, len) in self.range_req.iter().chain(&self.knn_req) {
            if self.failures[i].is_some() {
                continue;
            }
            let span = start..start + len;
            self.responses[i] = Some(match &self.pending[i].request {
                Request::Range(_) => {
                    Response::Range(span.map(|q| out.range.query_results(q).to_vec()).collect())
                }
                Request::RangeCount(_) => Response::RangeCount(
                    span.map(|q| out.range.query_results(q).len() as u64)
                        .collect(),
                ),
                Request::Knn(_) => {
                    Response::Knn(span.map(|q| out.knn.query_results(q).to_vec()).collect())
                }
                _ => unreachable!("query runs hold no writes"),
            });
        }
    }

    /// Executes one write run (`pending[idxs]`, all writes) as ONE backend
    /// [`ServiceBackend::write_batch`] call: every surviving request's
    /// writes flatten into one ordered op list in admission order, so each
    /// id's writes resolve across requests exactly as a serial run would,
    /// and each `Insert` reply takes its slice of the allocated ids. A run
    /// with no ops makes no call and publishes nothing: its acks carry the
    /// current epoch.
    ///
    /// On a shard death the run's requests fail with the typed error — the
    /// write *may* be partially applied (it is applied on every surviving
    /// shard); which requests' entries landed on the dead shard is not
    /// attributable after coalescing, so the whole run fails. So does a
    /// reply that lost ids. A panic that unwound out of the write fails
    /// the run typed and is only survivable if [`ServiceBackend::recover`]
    /// restores a consistent state; otherwise the service **poisons**:
    /// admission closes and everything still in flight or queued fails
    /// fast (the `dead` flag makes racing stragglers classify as
    /// [`RecvError::WorkerFailed`] rather than a clean shutdown). Every
    /// applied (even partially applied) write run **publishes the next
    /// epoch** — a counter bump, since the backend's live state now is
    /// that epoch — and stamps it on the run's surviving requests: the ack
    /// a client receives carries the epoch that made its write visible to
    /// snapshot readers.
    fn run_write_batch(&mut self, idxs: &[usize], totals: &mut DispatchTotals) {
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        let mut inserts = 0;
        for &i in idxs {
            if self.failures[i].is_some() {
                continue; // shed at admission: the write never happens, so
                          // later queries correctly see state without it
            }
            let response = match &self.pending[i].request {
                Request::StepDelta(moves) => {
                    ops.extend(
                        moves
                            .iter()
                            .map(|&(id, bb)| WriteOp::Set(id, Shape::Box(bb))),
                    );
                    Response::StepDelta(moves.len() as u64)
                }
                Request::Insert(envelopes) => {
                    ops.extend(envelopes.iter().map(|&bb| WriteOp::Insert(Shape::Box(bb))));
                    inserts += envelopes.len();
                    continue; // replied with its ids after the call
                }
                Request::Remove(ids) => {
                    ops.extend(ids.iter().map(|&id| WriteOp::Remove(id)));
                    Response::Remove(ids.len() as u64)
                }
                _ => unreachable!("write runs only hold write requests"),
            };
            self.responses[i] = Some(response);
        }
        let mut ids = Vec::new();
        if !ops.is_empty() {
            let backend = &mut self.backend;
            let failed = match catch_unwind(AssertUnwindSafe(|| backend.write_batch(&ops))) {
                Ok((allocated, report)) => {
                    totals.exec_elapsed_s += report.stats.elapsed_s;
                    totals.update.add(&report.stats);
                    totals.update_runs.push(ops.len());
                    ids = allocated;
                    report.failed.or((ids.len() != inserts).then_some(0))
                }
                Err(_) => {
                    totals.sched_panics += 1;
                    if !self.backend.recover() {
                        self.poisoned = true;
                        self.shared.dead.store(true, Ordering::Release);
                        self.shared.open.store(false, Ordering::Release);
                    }
                    Some(0)
                }
            };
            if let Some(shard) = failed {
                self.fail_rest(idxs, shard);
            }
            if !self.poisoned {
                self.epoch += 1;
            }
        }
        self.ops = ops;
        let mut rest = ids.as_slice();
        for &i in idxs.iter().filter(|&&i| self.failures[i].is_none()) {
            self.epochs[i] = self.epoch;
            if let Request::Insert(envelopes) = &self.pending[i].request {
                let (own, tail) = rest.split_at(envelopes.len());
                self.responses[i] = Some(Response::Insert(own.to_vec()));
                rest = tail;
            }
        }
        self.complete_run(idxs, totals);
    }

    /// Fails every request of `idxs` not yet completed and not already
    /// failed with [`RecvError::WorkerFailed`] on `shard` — the backend
    /// state is unknown after an unrecovered write-path panic (or a shard
    /// died under the write), so everything not yet served fails fast.
    fn fail_rest(&mut self, idxs: &[usize], shard: usize) {
        for &i in idxs {
            if self.pending[i].reply.is_some() && self.failures[i].is_none() {
                self.failures[i] = Some(RecvError::WorkerFailed { shard });
            }
        }
    }
}

/// The owning side of a running service: spawns the scheduler thread,
/// hands out [`ServiceHandle`]s, and controls shutdown.
///
/// ```
/// use simspatial_datagen::ElementSoupBuilder;
/// use simspatial_geom::{Aabb, Point3};
/// use simspatial_index::{GridConfig, ShardedEngine, UniformGrid};
/// use simspatial_service::{Request, ServiceConfig, ShardedBackend, SpatialService};
///
/// let data = ElementSoupBuilder::new().count(500).seed(7).build();
/// let backend = ShardedBackend::spawn(ShardedEngine::build(data.elements(), 1, |d| {
///     UniformGrid::build(d, GridConfig::auto(d))
/// }));
/// let service = SpatialService::spawn(backend, ServiceConfig::default());
/// let handle = service.handle();
/// let ticket = handle
///     .submit(Request::Range(vec![Aabb::new(
///         Point3::new(0.0, 0.0, 0.0),
///         Point3::new(30.0, 30.0, 30.0),
///     )]))
///     .unwrap();
/// let lists = ticket.recv().unwrap().into_range().unwrap();
/// assert_eq!(lists.len(), 1);
/// let stats = service.shutdown();
/// assert_eq!(stats.completed, 1);
/// ```
pub struct SpatialService {
    tx: mpsc::SyncSender<Envelope>,
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl SpatialService {
    /// Spawns the scheduler thread over `backend` with `config`.
    pub fn spawn<B: ServiceBackend>(backend: B, config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            open: AtomicBool::new(true),
            dead: AtomicBool::new(false),
            caps: backend.capabilities(),
            default_deadline: config.default_deadline,
            queue_cap: config.queue_cap.max(1),
            queue_depth: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            max_queue_depth: AtomicUsize::new(0),
            stats: Mutex::new(Counters {
                stats: ServiceStats {
                    memory_bytes: backend.memory_bytes(),
                    shard_sizes: backend.shard_sizes(),
                    // Epoch 0 is published before the first request.
                    epochs_published: 1,
                    ..ServiceStats::default()
                },
                sched_panics: 0,
            }),
        });
        let (tx, rx) = mpsc::sync_channel(config.queue_cap.max(1));
        let sched_shared = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("simspatial-dispatch".into())
            .spawn(move || Scheduler::new(backend, sched_shared, config).run(rx))
            .expect("spawn dispatcher thread");
        Self {
            tx,
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// A new client handle (cheap; clone freely across threads).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.snapshot()
    }

    /// Orderly shutdown: stop admitting, drain and complete everything
    /// already queued, stop the backend workers, and return the final
    /// stats. Subsequent `submit` calls on surviving handles error with
    /// [`SubmitError::ShutDown`].
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        self.shared.snapshot()
    }

    fn shutdown_inner(&mut self) {
        self.shared.open.store(false, Ordering::Release);
        if let Some(t) = self.dispatcher.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SpatialService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedBackend;
    use simspatial_index::{LinearScan, ShardedEngine};

    /// A straggler reply is counted before its client holds it: while the
    /// stats lock is held, the drop-guard cannot send; once it is
    /// released, the reply arrives with `completed` already counted.
    #[test]
    fn straggler_reply_is_counted_before_it_is_sent() {
        let service = SpatialService::spawn(
            ShardedBackend::spawn(ShardedEngine::build(&[], 1, LinearScan::build)),
            ServiceConfig::default(),
        );
        let shared = Arc::clone(&service.shared);
        let (reply, rx) = mpsc::channel();
        let env = Envelope {
            request: Request::Range(Vec::new()),
            consistency: Consistency::Barrier,
            reply: Some(reply),
            submitted: Instant::now(),
            deadline: None,
            shared: Arc::clone(&shared),
        };
        let held = shared.stats.lock().expect("stats lock");
        let dropper = std::thread::spawn(move || drop(env));
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "the straggler reply was sent before it was counted"
        );
        drop(held);
        let completion = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the straggler reply never arrived");
        assert!(matches!(completion.result, Err(RecvError::ShutDown)));
        let counted = shared.stats.lock().expect("stats lock");
        assert_eq!(
            (counted.stats.completed, counted.stats.failed_requests),
            (1, 1)
        );
        drop(counted);
        dropper.join().expect("dropper panicked");
    }
}
