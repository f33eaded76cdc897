//! Deterministic fault injection: seeded fault schedules and the chaos
//! backend wrapper that executes them.
//!
//! The supervision machinery (panic isolation, shard quarantine/restart,
//! typed failure completion) is only trustworthy if the whole failure
//! matrix actually runs — so this module makes failures an *input*. A
//! [`FaultPlan`] is a deterministic schedule of faults keyed by backend
//! operation index (and optionally shard); [`ChaosBackend`] wraps any
//! [`ServiceBackend`] and injects them. Same plan, same request sequence →
//! the exact same failures, every run, in ordinary `cargo test`:
//!
//! * **Dispatcher-level faults** (`shard: None`) fire inside the chaos
//!   wrapper on the scheduler thread, *before* the inner backend is
//!   touched — a panicking/unresponsive backend call. Each live
//!   `query_run` and each `write_batch` is one op, whatever it carries —
//!   a write run's `StepDelta`s, `Insert`s and `Remove`s alike — and a
//!   fault applies to the whole call: every request the call carries
//!   fails together, and none of another call's. Because the inner
//!   backend is never reached, an injected failure is a clean no-op on the
//!   dataset, which is what lets differential chaos tests compare the
//!   surviving responses byte-for-byte against a serial oracle.
//! * **Worker-level faults** (`shard: Some(s)`) are installed into a
//!   [`ShardedBackend`](crate::ShardedBackend)'s shard jobs via
//!   [`ServiceBackend::install_worker_faults`] and fire on whichever thread
//!   runs the lane — a pool thread, or the dispatcher as pool worker 0 —
//!   keyed by that shard's **job sequence number**, which the shard's
//!   pool slot keeps and which survives shard restarts — a crashing or
//!   slow shard. Only [`FaultKind::Panic`] and [`FaultKind::Delay`] make
//!   sense there ([`FaultKind::DropResponse`] is a dispatcher-level fault:
//!   a response that never arrives).

use crate::backend::{
    BackendTelemetry, Capabilities, QueryRun, QueryRunReport, QueryRunResults, ServiceBackend,
    UpdateReport,
};
use simspatial_geom::ElementId;
use simspatial_index::{UpdateStats, WriteOp};
use std::time::Duration;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the injection point (dispatcher call or shard worker job).
    /// Exercises the catch-unwind isolation, quarantine and restart paths.
    Panic,
    /// Sleep for the given duration before executing normally — a slow
    /// backend call or straggler shard. Exercises deadlines: the work
    /// completes, but possibly after the requests' deadlines expired.
    Delay(Duration),
    /// The operation's response is lost: a query run returns empty result
    /// buffers and no reports (the scheduler detects the arity mismatch and
    /// fails every request of the run), a write is not applied and reports
    /// failure. Dispatcher-level only.
    DropResponse,
}

/// One scheduled fault: fire `kind` at operation `op` — the dispatcher's
/// backend-call index when `shard` is `None`, or shard `s`'s job sequence
/// number when `shard` is `Some(s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Backend-call index (dispatcher faults) or per-shard job sequence
    /// number (worker faults) the fault fires at.
    pub op: u64,
    /// `None` → dispatcher-level; `Some(s)` → shard `s`'s worker.
    pub shard: Option<usize>,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seeded schedule of injected faults. A dispatcher-level
/// fault's `op` counts the backend calls that consume one: live query runs
/// and write runs, whatever requests they carry (see [`ChaosBackend`]).
///
/// Build one explicitly with the `*_at`/`*_on_shard` methods, generate one
/// pseudo-randomly with [`FaultPlan::random`], or pick the seed up from the
/// `SIMSPATIAL_FAULT_SEED` environment variable ([`FaultPlan::from_env`] —
/// how CI runs a fresh randomized chaos schedule on every build while
/// keeping any failure reproducible from the echoed seed).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<ScheduledFault>,
}

/// `splitmix64` — the workspace's standard tiny deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (injects nothing — the supervision-overhead baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// The seed this plan was generated from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn push(mut self, op: u64, shard: Option<usize>, kind: FaultKind) -> Self {
        self.faults.push(ScheduledFault { op, shard, kind });
        self
    }

    /// Panic on the dispatcher's `op`-th backend call.
    pub fn panic_at(self, op: u64) -> Self {
        self.push(op, None, FaultKind::Panic)
    }

    /// Delay the dispatcher's `op`-th backend call by `d`.
    pub fn delay_at(self, op: u64, d: Duration) -> Self {
        self.push(op, None, FaultKind::Delay(d))
    }

    /// Drop the response of the dispatcher's `op`-th backend call.
    pub fn drop_at(self, op: u64) -> Self {
        self.push(op, None, FaultKind::DropResponse)
    }

    /// Panic shard `shard`'s worker on its `seq`-th job.
    pub fn panic_on_shard(self, shard: usize, seq: u64) -> Self {
        self.push(seq, Some(shard), FaultKind::Panic)
    }

    /// Delay shard `shard`'s worker by `d` on its `seq`-th job.
    pub fn delay_on_shard(self, shard: usize, seq: u64, d: Duration) -> Self {
        self.push(seq, Some(shard), FaultKind::Delay(d))
    }

    /// A pseudo-random plan over roughly `ops` dispatcher operations and
    /// `shards` shard workers, fully determined by `seed`: the same seed
    /// always yields the same plan. Mixes all three fault kinds at the
    /// dispatcher level and panic/delay faults at the worker level
    /// (`shards == 0` → dispatcher faults only).
    pub fn random(seed: u64, ops: u64, shards: usize) -> Self {
        let mut state = seed;
        let mut plan = Self {
            seed,
            faults: Vec::new(),
        };
        let n_faults = (ops / 6).clamp(1, 24);
        for _ in 0..n_faults {
            let op = splitmix64(&mut state) % ops.max(1);
            let roll = splitmix64(&mut state);
            let worker_level = shards > 0 && roll.is_multiple_of(2);
            let kind = match splitmix64(&mut state) % 3 {
                0 => FaultKind::Panic,
                1 => FaultKind::Delay(Duration::from_micros(200 + splitmix64(&mut state) % 800)),
                // A worker can't "drop" a response (the gather would hang);
                // lost responses are a dispatcher-level phenomenon.
                _ if worker_level => FaultKind::Panic,
                _ => FaultKind::DropResponse,
            };
            let shard = worker_level.then(|| (splitmix64(&mut state) % shards as u64) as usize);
            plan.faults.push(ScheduledFault { op, shard, kind });
        }
        plan
    }

    /// A randomized plan seeded from the `SIMSPATIAL_FAULT_SEED`
    /// environment variable, or `None` when it is unset/unparsable. CI sets
    /// a fresh value per run and echoes it on failure, so any red chaos run
    /// reproduces locally with the same variable.
    pub fn from_env(ops: u64, shards: usize) -> Option<Self> {
        let seed = std::env::var("SIMSPATIAL_FAULT_SEED").ok()?.parse().ok()?;
        Some(Self::random(seed, ops, shards))
    }

    /// The fault scheduled for the dispatcher's `op`-th backend call, if
    /// any (first match wins when a plan stacked several on one op).
    pub fn dispatcher_fault(&self, op: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.shard.is_none() && f.op == op)
            .map(|f| f.kind)
    }

    /// The worker-level faults as `(shard, job sequence, kind)` triples —
    /// the payload [`ServiceBackend::install_worker_faults`] accepts.
    /// `DropResponse` entries are ignored (dispatcher-level only).
    pub fn worker_faults(&self) -> Vec<(usize, u64, FaultKind)> {
        self.faults
            .iter()
            .filter_map(|f| {
                let shard = f.shard?;
                (f.kind != FaultKind::DropResponse).then_some((shard, f.op, f.kind))
            })
            .collect()
    }

    /// Number of scheduled [`FaultKind::Panic`] faults (dispatcher +
    /// worker) — what the chaos tests compare telemetry counters against.
    pub fn planned_panics(&self) -> u64 {
        self.faults
            .iter()
            .filter(|f| f.kind == FaultKind::Panic)
            .count() as u64
    }
}

/// A [`ServiceBackend`] wrapper executing a [`FaultPlan`]: dispatcher-level
/// faults fire here (keyed by a backend-call counter), worker-level faults
/// are installed into the inner backend's shard workers at construction.
///
/// **One call, one op:** each live query run and each write run is one
/// backend call, so it consumes one op index whatever it carries — kNN
/// probes with several `k`s, or `StepDelta`s, `Insert`s and `Remove`s
/// coalesced into one ordered write batch. A snapshot run consumes none.
///
/// Injected dispatcher panics fire **before** the inner backend is called,
/// so the inner state is untouched and [`ChaosBackend::recover`] can
/// truthfully report the backend consistent — the service keeps serving.
/// Everything else (stats, telemetry, write support) forwards to the inner
/// backend unchanged, so a wrapper with an *empty* plan serves exactly as
/// the inner backend does.
pub struct ChaosBackend<B> {
    inner: B,
    plan: FaultPlan,
    /// Backend-call index: every live `query_run` and every `write_batch`
    /// consumes one, whatever it carries and panicking calls included —
    /// the op sequence only depends on the call sequence, never on fault
    /// outcomes.
    op: u64,
    /// Whether the latest op was an injected panic, so
    /// [`ChaosBackend::recover`] knows the inner backend was never reached.
    /// Every op sets it from its own fault, and every write is an op, so
    /// the flag a write panic leaves is that write's own.
    injected_panic: bool,
}

impl<B: ServiceBackend> ChaosBackend<B> {
    /// Wraps `inner`, installing the plan's worker-level faults into it.
    pub fn new(mut inner: B, plan: FaultPlan) -> Self {
        inner.install_worker_faults(&plan.worker_faults());
        Self {
            inner,
            plan,
            op: 0,
            injected_panic: false,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consumes one op index and returns its scheduled fault, panicking
    /// right here when the schedule says so.
    fn next_op(&mut self) -> Option<FaultKind> {
        let op = self.op;
        self.op += 1;
        let fault = self.plan.dispatcher_fault(op);
        // Flag first: the unwind leaves `self` behind for `recover`.
        self.injected_panic = fault == Some(FaultKind::Panic);
        if self.injected_panic {
            panic!("chaos: injected dispatcher panic at op {op}");
        }
        fault
    }
}

impl<B: ServiceBackend> ServiceBackend for ChaosBackend<B> {
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    /// A live run is one op, whatever sub-batches it carries: an injected
    /// panic unwinds out of this call before the inner backend is reached,
    /// a delay sleeps once, and a dropped response never reaches the
    /// inner backend (queries are side-effect free either way) — the out
    /// buffers come back empty with no reports, so every non-empty
    /// sub-batch has an arity mismatch. A snapshot run forwards and
    /// consumes no op: epoch machinery joining a plan must not shift an
    /// op-keyed schedule.
    fn query_run(
        &mut self,
        run: &QueryRun,
        snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        if snapshot {
            return self.inner.query_run(run, true, out);
        }
        match self.next_op() {
            Some(FaultKind::DropResponse) => {
                out.range.reset();
                out.knn.reset();
                QueryRunReport::default()
            }
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.query_run(run, false, out)
            }
            _ => self.inner.query_run(run, false, out),
        }
    }

    /// A write run is one op, whatever it carries. A dropped one is lost
    /// before reaching the inner backend: a clean no-op on the dataset
    /// (no id allocated), reported as a failure so the write requests
    /// complete with a typed error (the serial oracle must skip the same
    /// write).
    fn write_batch(&mut self, ops: &[WriteOp]) -> (Vec<ElementId>, UpdateReport) {
        match self.next_op() {
            Some(FaultKind::DropResponse) => {
                let stats = UpdateStats {
                    skipped: ops.len() as u64,
                    ..UpdateStats::default()
                };
                let failed = Some(0);
                (Vec::new(), UpdateReport { stats, failed })
            }
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.write_batch(ops)
            }
            _ => self.inner.write_batch(ops),
        }
    }

    /// An injected panic fired before the inner backend was called: the
    /// inner state is untouched, keep serving. Otherwise the inner backend
    /// decides.
    fn recover(&mut self) -> bool {
        self.injected_panic || self.inner.recover()
    }

    fn telemetry(&self) -> BackendTelemetry {
        self.inner.telemetry()
    }

    fn install_worker_faults(&mut self, faults: &[(usize, u64, FaultKind)]) {
        self.inner.install_worker_faults(faults);
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        self.inner.shard_sizes()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(42, 100, 4);
        let b = FaultPlan::random(42, 100, 4);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.seed(), 42);
        assert!(!a.is_empty());
        let c = FaultPlan::random(43, 100, 4);
        assert_ne!(a.faults(), c.faults(), "different seeds, different plans");
        // Every fault lands inside the op/shard budget.
        for f in a.faults() {
            assert!(f.op < 100);
            if let Some(s) = f.shard {
                assert!(s < 4);
                assert_ne!(f.kind, FaultKind::DropResponse);
            }
        }
    }

    #[test]
    fn builder_and_lookups() {
        let plan = FaultPlan::new()
            .panic_at(3)
            .delay_at(5, Duration::from_millis(1))
            .drop_at(7)
            .panic_on_shard(1, 2)
            .delay_on_shard(0, 4, Duration::from_millis(2));
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.dispatcher_fault(3), Some(FaultKind::Panic));
        assert_eq!(plan.dispatcher_fault(7), Some(FaultKind::DropResponse));
        assert_eq!(plan.dispatcher_fault(2), None);
        // Shard faults never surface as dispatcher faults.
        assert_eq!(plan.dispatcher_fault(4), None);
        let workers = plan.worker_faults();
        assert_eq!(workers.len(), 2);
        assert!(workers.contains(&(1, 2, FaultKind::Panic)));
        assert_eq!(plan.planned_panics(), 2);
    }

    #[test]
    fn unsharded_random_plans_stay_dispatcher_level() {
        let plan = FaultPlan::random(7, 64, 0);
        assert!(plan.worker_faults().is_empty());
    }

    /// Reads fine, panics on every write and cannot recover from it.
    struct TornWrites;

    impl ServiceBackend for TornWrites {
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: true }
        }

        fn query_run(
            &mut self,
            _run: &QueryRun,
            _snapshot: bool,
            _out: &mut QueryRunResults,
        ) -> QueryRunReport {
            QueryRunReport::default()
        }

        fn write_batch(&mut self, _ops: &[WriteOp]) -> (Vec<ElementId>, UpdateReport) {
            panic!("torn write");
        }

        fn memory_bytes(&self) -> usize {
            0
        }

        fn shard_sizes(&self) -> Vec<usize> {
            Vec::new()
        }
    }

    #[test]
    fn injected_read_panic_does_not_vouch_for_a_later_write_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut chaos = ChaosBackend::new(TornWrites, FaultPlan::new().panic_at(0));
        let run = QueryRun {
            range: vec![simspatial_geom::Aabb::empty()],
            knn: Vec::new(),
        };
        let read = catch_unwind(AssertUnwindSafe(|| {
            chaos.query_run(&run, false, &mut QueryRunResults::default())
        }));
        assert!(read.is_err(), "op 0 is the injected read panic");
        let write = catch_unwind(AssertUnwindSafe(|| chaos.write_batch(&[])));
        assert!(
            write.is_err(),
            "op 1 is the inner backend's own write panic"
        );
        assert!(!chaos.recover(), "only the inner backend can vouch for it");
    }
}
