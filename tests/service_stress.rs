//! Concurrency coverage for the query service.
//!
//! * **Differential**: concurrent submissions from ≥4 producer threads
//!   must return results *identical* — same id ordering per range query,
//!   same `(id, distance)` lists per kNN probe — to a serial
//!   `QueryEngine` (resp. `ShardedEngine`) run over the same requests,
//!   with micro-batch coalescing both on and off.
//! * **Lifecycle**: orderly shutdown drains and completes everything
//!   already admitted; submissions after shutdown fail cleanly with
//!   `SubmitError::ShutDown`.
//! * **Backpressure**: with the dispatcher wedged, the bounded intake
//!   queue fills and a nonblocking `submit_with` reports `Full` instead
//!   of blocking.
//! * **Write barrier**: interleaved update/query streams — pipelined from
//!   one producer and concurrent from 2 query + 2 update producers — are
//!   byte-identical to a serial interleaving honoring the write barrier,
//!   on the single-engine backend and on sharded backends (uniform and
//!   median-cut) including cross-shard migrations.
//! * **One write run, one backend write**: `StepDelta`, `Insert`,
//!   `StepDelta`, `Remove` held in one dispatch reach the backend as one
//!   call, are acked with one epoch, and leave the dataset a serial engine
//!   fed the four requests one by one holds.

mod common;

use common::{expected, mix, rebuild_only, soup, RebuildOracle, SerialOracle, ShardedOracle};
use simspatial::prelude::*;
use simspatial_service::{
    QueryRun, QueryRunReport, QueryRunResults, RecvError, ServiceBackend, UpdateReport,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Deterministic request stream for producer `tid`: a mix of `Range`,
/// `RangeCount` and `Knn` (per-probe k varying 1..9, including k=0 and a
/// far-outside probe), so coalescing sees all families and k-groups.
fn requests_for(tid: u32, count: u32) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let h = mix(tid.wrapping_mul(1000) + i);
            let cx = (h % 90) as f32;
            let cy = ((h >> 8) % 90) as f32;
            let cz = ((h >> 16) % 90) as f32;
            match h % 3 {
                0 => Request::Range(
                    (0..(h % 4 + 1))
                        .map(|q| {
                            let o = q as f32 * 7.0;
                            Aabb::new(
                                Point3::new(cx - o, cy, cz),
                                Point3::new(cx + 9.0, cy + 12.0, cz + 8.0 + o),
                            )
                        })
                        .collect(),
                ),
                1 => Request::RangeCount(vec![Aabb::new(
                    Point3::new(cx, cy, cz),
                    Point3::new(cx + 20.0, cy + 20.0, cz + 20.0),
                )]),
                _ => Request::Knn(
                    (0..(h % 3 + 1))
                        .map(|q| {
                            let k = ((h >> (q * 4)) % 9) as usize; // 0..=8, k=0 included
                            let p = if q == 2 {
                                Point3::new(-500.0, -500.0, -500.0)
                            } else {
                                Point3::new(cx + q as f32, cy, cz)
                            };
                            (p, k)
                        })
                        .collect(),
                ),
            }
        })
        .collect()
}

struct EngineOracle<'a, I> {
    engine: QueryEngine,
    index: &'a I,
    data: &'a [Element],
}

impl<I: SpatialIndex + KnnIndex> SerialOracle for EngineOracle<'_, I> {
    fn range(&mut self, qs: &[Aabb]) -> Vec<Vec<ElementId>> {
        let mut out = BatchResults::new();
        self.engine
            .range_collect(self.index, self.data, qs, &mut out);
        (0..qs.len())
            .map(|q| out.query_results(q).to_vec())
            .collect()
    }

    fn knn(&mut self, p: &Point3, k: usize) -> Vec<(ElementId, f32)> {
        let mut out = KnnBatchResults::new();
        self.engine
            .knn_collect(self.index, self.data, &[*p], k, &mut out);
        out.query_results(0).to_vec()
    }
}

const PRODUCERS: u32 = 4;
const REQUESTS_PER_PRODUCER: u32 = 40;

/// Drives `service` from `PRODUCERS` threads (pipelined submissions, so the
/// scheduler has something to coalesce) and checks every response against
/// the serial oracle.
fn drive_and_verify(service: SpatialService, oracle: &mut dyn SerialOracle, label: &str) {
    let collected: Vec<(u32, Vec<Response>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|tid| {
                let h = service.handle();
                scope.spawn(move || {
                    let requests = requests_for(tid, REQUESTS_PER_PRODUCER);
                    // Pipeline: submit everything, then collect in order.
                    let tickets: Vec<Ticket> = requests
                        .iter()
                        .map(|r| h.submit(r.clone()).expect("open service accepts"))
                        .collect();
                    let responses: Vec<Response> = tickets
                        .into_iter()
                        .map(|t| t.recv().expect("response arrives"))
                        .collect();
                    (tid, responses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = service.shutdown();
    assert_eq!(
        stats.completed,
        u64::from(PRODUCERS * REQUESTS_PER_PRODUCER),
        "{label}: all requests complete"
    );
    assert_eq!(
        stats.latency.count, stats.completed,
        "{label}: latency per request"
    );
    assert!(stats.dispatches >= 1);
    assert!(stats.memory_bytes > 0, "{label}: backend memory surfaced");
    assert!(
        !stats.shard_sizes.is_empty(),
        "{label}: shard sizes surfaced"
    );
    for (tid, responses) in collected {
        let requests = requests_for(tid, REQUESTS_PER_PRODUCER);
        assert_eq!(responses.len(), requests.len());
        for (i, (request, got)) in requests.iter().zip(&responses).enumerate() {
            let want = expected(oracle, request);
            assert_eq!(got, &want, "{label}: producer {tid} request {i} diverged");
        }
    }
}

#[test]
fn service_matches_serial_engine() {
    let data = soup(2500, 0xBEEF);
    let index = UniformGrid::build(&data, GridConfig::auto(&data));
    let mut oracle = EngineOracle {
        engine: QueryEngine::new(),
        index: &index,
        data: &data,
    };
    for coalesce in [true, false] {
        let backend = ShardedBackend::spawn(ShardedEngine::build(&data, 1, |d| {
            UniformGrid::build(d, GridConfig::auto(d))
        }));
        let cfg = if coalesce {
            ServiceConfig::default()
        } else {
            ServiceConfig::default().no_coalesce()
        };
        let service = SpatialService::spawn(backend, cfg);
        let label = format!("engine/grid coalesce={coalesce}");
        drive_and_verify(service, &mut oracle, &label);
    }
}

#[test]
fn service_matches_serial_sharded() {
    let data = soup(2000, 0xCAFE);
    let build = |part: &[Element]| RTree::bulk_load(part, RTreeConfig::default());
    let mut oracle = ShardedOracle(ShardedEngine::build(&data, 3, build));
    for coalesce in [true, false] {
        let backend = ShardedBackend::spawn(ShardedEngine::build(&data, 3, build));
        assert_eq!(backend.shard_count(), 3);
        let cfg = if coalesce {
            ServiceConfig::default()
        } else {
            ServiceConfig::default().no_coalesce()
        };
        let service = SpatialService::spawn(backend, cfg);
        let label = format!("sharded/rtree coalesce={coalesce}");
        drive_and_verify(service, &mut oracle, &label);
    }
}

#[test]
fn service_on_median_cut_shards_matches_serial() {
    let data = soup(1500, 0x5EED);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let mut oracle = ShardedOracle(ShardedEngine::build_median(&data, 4, build));
    let backend = ShardedBackend::spawn(ShardedEngine::build_median(&data, 4, build));
    let service = SpatialService::spawn(backend, ServiceConfig::default());
    drive_and_verify(service, &mut oracle, "sharded/grid median-cut");
}

/// A backend whose FIRST dispatch blocks until the test releases a gate —
/// the deterministic way to wedge the scheduler and observe queueing,
/// backpressure and drain-during-shutdown.
struct GatedBackend<B: ServiceBackend> {
    inner: B,
    gate: Option<mpsc::Receiver<()>>,
}

impl<B: ServiceBackend> GatedBackend<B> {
    fn new(inner: B) -> (Self, mpsc::Sender<()>) {
        let (tx, rx) = mpsc::channel();
        (
            Self {
                inner,
                gate: Some(rx),
            },
            tx,
        )
    }

    fn wait_gate(&mut self) {
        if let Some(gate) = self.gate.take() {
            let _ = gate.recv();
        }
    }
}

impl<B: ServiceBackend> ServiceBackend for GatedBackend<B> {
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn query_run(
        &mut self,
        run: &QueryRun,
        snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        self.wait_gate();
        self.inner.query_run(run, snapshot, out)
    }

    fn write_batch(&mut self, ops: &[WriteOp]) -> (Vec<ElementId>, UpdateReport) {
        self.wait_gate();
        self.inner.write_batch(ops)
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

fn small_backend(data: &[Element]) -> ShardedBackend {
    ShardedBackend::spawn(ShardedEngine::build(data, 1, LinearScan::build))
}

fn one_box() -> Request {
    Request::Range(vec![Aabb::new(
        Point3::ORIGIN,
        Point3::new(50.0, 50.0, 50.0),
    )])
}

#[test]
fn shutdown_drains_queue_and_rejects_new_submissions() {
    let data = soup(300, 1);
    let (backend, gate) = GatedBackend::new(small_backend(&data));
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    // Admit a backlog; the first dispatch wedges on the gate, the rest queue.
    let tickets: Vec<Ticket> = (0..6)
        .map(|_| handle.submit(one_box()).expect("open service accepts"))
        .collect();
    // Shut down from another thread (it blocks joining the dispatcher).
    let closer = std::thread::spawn(move || service.shutdown());
    // The admission flag flips before the drain finishes…
    while handle.is_open() {
        std::thread::sleep(Duration::from_millis(1));
    }
    // …so new submissions already fail, while the backlog is still queued.
    match handle.submit(one_box()) {
        Err(SubmitError::ShutDown(_)) => {}
        other => panic!("submit after shutdown must fail cleanly, got {other:?}"),
    }
    // Release the gate: the drain completes every admitted request.
    gate.send(()).unwrap();
    let stats = closer.join().unwrap();
    assert_eq!(stats.completed, 6, "orderly shutdown drains the queue");
    for (i, t) in tickets.into_iter().enumerate() {
        let lists = t
            .recv()
            .unwrap_or_else(|_| panic!("admitted request {i} must be completed"))
            .into_range()
            .unwrap();
        assert_eq!(lists.len(), 1);
    }
    // A ticket for a request that was never admitted errors, not hangs.
    let nonblocking = SubmitOptions {
        nonblocking: true,
        ..SubmitOptions::default()
    };
    match handle.submit_with(one_box(), nonblocking) {
        Err(SubmitError::ShutDown(_)) => {}
        other => panic!("nonblocking submit after shutdown must fail cleanly, got {other:?}"),
    }
}

#[test]
fn bounded_queue_reports_backpressure() {
    let data = soup(200, 2);
    let (backend, gate) = GatedBackend::new(small_backend(&data));
    let service = SpatialService::spawn(
        backend,
        ServiceConfig::default().no_coalesce().with_queue_cap(2),
    );
    let handle = service.handle();
    // Wedge the dispatcher, then fill the bounded queue without blocking.
    let mut accepted = Vec::new();
    let mut saw_full = false;
    let nonblocking = SubmitOptions {
        nonblocking: true,
        ..SubmitOptions::default()
    };
    for _ in 0..5 {
        match handle.submit_with(one_box(), nonblocking) {
            Ok(t) => accepted.push(t),
            Err(SubmitError::Full {
                request: req,
                depth,
                capacity,
                high_water,
            }) => {
                saw_full = true;
                // The request comes back for retry, and the rejection
                // carries honest congestion gauges for backoff scaling.
                assert_eq!(req.len(), 1);
                assert_eq!(capacity, 2, "capacity mirrors the configured cap");
                assert!(depth >= 1, "a full queue reports its depth");
                assert!(high_water >= depth, "high-water dominates depth");
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        saw_full,
        "cap-2 queue must reject within 5 wedged submissions"
    );
    assert!(accepted.len() >= 2, "the queue accepts up to its bound");
    let pre = handle.stats();
    assert!(pre.rejected >= 1, "rejections are counted");
    gate.send(()).unwrap();
    let stats = service.shutdown();
    assert_eq!(stats.completed, accepted.len() as u64);
    for t in accepted {
        assert!(t.recv().is_ok(), "accepted requests complete");
    }
    assert_eq!(stats.queue_depth, 0, "drained queue gauge returns to zero");
}

#[test]
fn dropped_service_errors_outstanding_tickets_cleanly() {
    // A ticket whose service vanished reports ShutDown rather than hanging.
    let data = soup(100, 3);
    let (backend, gate) = GatedBackend::new(small_backend(&data));
    // With the sender gone, wait_gate's recv errors and returns, so the
    // backend is NOT wedged; this test only checks lifecycle.
    drop(gate);
    let service = SpatialService::spawn(backend, ServiceConfig::default());
    let handle = service.handle();
    let t = handle.submit(one_box()).unwrap();
    t.recv().expect("live service completes the request");
    drop(service); // Drop shuts the service down.
    match handle.submit(one_box()) {
        Err(SubmitError::ShutDown(_)) => {}
        other => panic!("submit into dropped service must fail, got {other:?}"),
    }
    // recv on a never-admitted ticket path: construct via a submit race is
    // not reachable deterministically; instead check RecvError Display.
    assert_eq!(
        RecvError::ShutDown.to_string(),
        "service shut down before completing the request"
    );
}

// ---------------------------------------------------------------------------
// Write path: barrier ordering, mixed producers, migrations.
// ---------------------------------------------------------------------------

/// Number of dataset elements used by the write-path tests.
const WRITE_SOUP: u32 = 1200;

/// A box far outside the data universe (soup coordinates span ~0..100):
/// updates move elements *into* it, so a range query over it decodes
/// exactly which updates are visible.
fn beacon_all() -> Aabb {
    Aabb::new(
        Point3::new(150.0, 150.0, 150.0),
        Point3::new(175.0, 175.0, 175.0),
    )
}

/// The distinct in-beacon target envelope of update slot `slot`.
fn beacon_target(slot: u32) -> Aabb {
    let x = 151.0 + (slot % 40) as f32 * 0.5;
    let y = 151.0 + ((slot / 40) % 40) as f32 * 0.5;
    Aabb::new(
        Point3::new(x, y, 151.0),
        Point3::new(x + 0.3, y + 0.3, 151.5),
    )
}

/// Deterministic interleaved read/write request stream: ranges, sparse
/// updates (with cross-request last-write-wins collisions), kNN probes,
/// counts and full-dataset `StepDelta` ticks.
fn barrier_requests(count: u32) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let h = mix(0xD00D + i);
            let cx = (h % 80) as f32;
            let data_box = Aabb::new(
                Point3::new(cx, (h >> 8) as f32 % 80.0, 5.0),
                Point3::new(cx + 18.0, (h >> 8) as f32 % 80.0 + 15.0, 60.0),
            );
            match i % 4 {
                0 => Request::Range(vec![beacon_all(), data_box]),
                1 => {
                    // Two updates per request; id collisions across requests
                    // exercise last-write-wins at the barriers.
                    let a = h % WRITE_SOUP;
                    let b = (h >> 7) % WRITE_SOUP;
                    Request::StepDelta(vec![(a, beacon_target(i)), (b, beacon_target(i + 500))])
                }
                2 => Request::Knn(vec![
                    (Point3::new(160.0, 160.0, 151.0), 5),
                    (Point3::new(cx, cx, cx), 4),
                ]),
                _ => {
                    if i % 8 == 3 {
                        // A whole simulation tick: every element re-placed at
                        // a deterministic position inside the universe.
                        Request::StepDelta(
                            (0..WRITE_SOUP)
                                .map(|id| {
                                    let g = mix(id.wrapping_mul(31) ^ i);
                                    let p = Point3::new(
                                        (g % 997) as f32 / 10.0,
                                        ((g >> 10) % 997) as f32 / 10.0,
                                        ((g >> 20) % 997) as f32 / 10.0,
                                    );
                                    (
                                        id,
                                        Aabb::new(p, Point3::new(p.x + 0.6, p.y + 0.6, p.z + 0.6)),
                                    )
                                })
                                .collect(),
                        )
                    } else {
                        Request::RangeCount(vec![beacon_all(), data_box])
                    }
                }
            }
        })
        .collect()
}

/// Pipelines the interleaved stream from one producer (so the scheduler
/// coalesces read runs and write runs within dispatches) and asserts every
/// response is byte-identical to the serial oracle run in admission order.
fn drive_barrier_and_verify(
    service: SpatialService,
    oracle: &mut dyn SerialOracle,
    pipelined: bool,
    label: &str,
) {
    let requests = barrier_requests(48);
    let handle = service.handle();
    let responses: Vec<Response> = if pipelined {
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| handle.submit(r.clone()).expect("open service accepts"))
            .collect();
        tickets
            .into_iter()
            .map(|t| t.recv().expect("response arrives"))
            .collect()
    } else {
        requests
            .iter()
            .map(|r| {
                handle
                    .submit(r.clone())
                    .expect("open service accepts")
                    .recv()
                    .expect("response arrives")
            })
            .collect()
    };
    let stats = service.shutdown();
    assert!(stats.updates_applied > 0, "{label}: updates flowed");
    assert!(stats.update_dispatches > 0, "{label}: write runs executed");
    for (i, (request, got)) in requests.iter().zip(&responses).enumerate() {
        let want = expected(oracle, request);
        assert_eq!(got, &want, "{label}: request {i} diverged from serial");
    }
}

#[test]
fn write_barrier_matches_serial_on_engine_backend() {
    let data = soup(WRITE_SOUP, 0xF00D);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    for pipelined in [false, true] {
        let backend = ShardedBackend::spawn(
            ShardedEngine::build(&data, 1, rebuild_only(build)).with_rebuild(rebuild_only(build)),
        );
        let service = SpatialService::spawn(backend, ServiceConfig::default());
        assert!(service.handle().capabilities().updates);
        let mut oracle = RebuildOracle::new(data.clone(), build);
        drive_barrier_and_verify(
            service,
            &mut oracle,
            pipelined,
            &format!("engine/grid writable pipelined={pipelined}"),
        );
    }
}

#[test]
fn write_barrier_matches_serial_on_sharded_backends() {
    let data = soup(WRITE_SOUP, 0xFEED);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    for median in [false, true] {
        let make = || {
            if median {
                ShardedEngine::build_median(&data, 4, build).with_rebuild(build)
            } else {
                ShardedEngine::build(&data, 3, build).with_rebuild(build)
            }
        };
        let backend = ShardedBackend::spawn(make());
        assert!(backend.capabilities().updates);
        let service = SpatialService::spawn(backend, ServiceConfig::default());
        let mut oracle = ShardedOracle(make());
        drive_barrier_and_verify(
            service,
            &mut oracle,
            true,
            &format!("sharded/grid median={median}"),
        );
    }
}

#[test]
fn write_barrier_matches_serial_on_strategy_backend() {
    // Strategy structures are history-dependent (a migrated grid's cell
    // lists differ from a rebuilt one's), so the oracle must see the same
    // update groupings: disable coalescing and run strictly sequentially —
    // one dispatch, one `write_batch`, per request, both sides.
    let data = soup(WRITE_SOUP, 0xD1CE);
    let kind = UpdateStrategyKind::GridMigrate;
    let backend = strategy_backend(data.clone(), kind);
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let mut oracle = ShardedOracle(sharded_strategy_engine(&data, 1, kind));
    drive_barrier_and_verify(service, &mut oracle, false, "engine/grid-migrate strategy");
}

/// One in-place write behind the service and the serial engine: the
/// request stream served by `strategy_backend` replies byte for byte like a
/// serial one-shard incremental `sharded_strategy_engine` — superseded
/// duplicates, unknown ids, inserts and removals included.
#[test]
fn strategy_apply_behaves_the_same_behind_both_backends() {
    let data = soup(WRITE_SOUP, 0xD1CE);
    let kind = UpdateStrategyKind::GridMigrate;
    let mut requests = barrier_requests(48);
    requests.push(Request::StepDelta(vec![
        (17, beacon_target(900)),             // superseded two entries on
        (WRITE_SOUP + 5, beacon_target(901)), // unknown id
        (17, beacon_target(902)),
        (18, beacon_target(903)),
    ]));
    requests.push(Request::Range(vec![beacon_all()]));
    requests.push(Request::Knn(vec![(Point3::new(160.0, 160.0, 151.0), 6)]));
    requests.push(Request::Insert(vec![
        beacon_target(904),
        beacon_target(905),
    ]));
    requests.push(Request::Remove(vec![18, WRITE_SOUP]));
    requests.push(Request::Range(vec![beacon_all()]));
    requests.push(Request::Knn(vec![(Point3::new(160.0, 160.0, 151.0), 6)]));
    let service = SpatialService::spawn(
        strategy_backend(data.clone(), kind),
        ServiceConfig::default().no_coalesce(),
    );
    let handle = service.handle();
    let mut oracle = ShardedOracle(sharded_strategy_engine(&data, 1, kind));
    for (i, request) in requests.iter().enumerate() {
        let got = handle.submit(request.clone()).unwrap().recv().unwrap();
        let want = expected(&mut oracle, request);
        assert_eq!(got, want, "request {i} diverged from the serial engine");
    }
    let stats = service.shutdown();
    assert!(stats.updates_applied > 0 && stats.updates_skipped >= 2);
    // Every sparse write ran in place on the shard — the strategy's own
    // write, not the rebuild fallback, is what the comparison exercised.
    assert!(stats.rebuilds_avoided > 0);
}

/// Counts the backend write calls, and signals the first read call as it
/// enters — before the (gated) backend answers it.
struct CountingBackend<B: ServiceBackend> {
    inner: B,
    writes: Arc<AtomicUsize>,
    entered: Option<mpsc::Sender<()>>,
}

impl<B: ServiceBackend> ServiceBackend for CountingBackend<B> {
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn query_run(
        &mut self,
        run: &QueryRun,
        snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        if let Some(entered) = self.entered.take() {
            let _ = entered.send(());
        }
        self.inner.query_run(run, snapshot, out)
    }

    fn write_batch(&mut self, ops: &[WriteOp]) -> (Vec<ElementId>, UpdateReport) {
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.inner.write_batch(ops)
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

/// One write run is one backend write, whatever it carries: `StepDelta`,
/// `Insert`, `StepDelta`, `Remove` queued behind a gated read drain as one
/// dispatch, reach the backend in one call and are acked with one epoch.
/// The acks — the `Insert` ids among them — and the kNN replies after the
/// run equal those of a serial engine fed the four requests one by one;
/// the range replies equal its id sets (a grid shard's emission order
/// depends on how its writes were batched). The writes name ids the way a
/// serial run resolves: a duplicate set, a set on an id the run inserted,
/// a set then a removal, an insert then a removal, an unknown removal.
#[test]
fn mixed_write_run_is_one_backend_write() {
    let data = soup(WRITE_SOUP, 0x1417);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let at = |x: f32, y: f32, z: f32| {
        Aabb::new(Point3::new(x, y, z), Point3::new(x + 0.8, y + 0.8, z + 0.8))
    };
    let n = WRITE_SOUP;
    let writes = [
        Request::StepDelta(vec![
            (17, at(10.0, 40.0, 40.0)),
            (18, at(90.0, 40.0, 40.0)),
            (19, at(50.0, 50.0, 50.0)),
        ]),
        Request::Insert(vec![at(30.0, 30.0, 30.0), at(70.0, 70.0, 70.0)]),
        Request::StepDelta(vec![
            (n, at(60.0, 60.0, 60.0)),
            (17, at(80.0, 20.0, 20.0)),
            (21, at(25.0, 75.0, 25.0)),
        ]),
        Request::Remove(vec![18, n + 1, 22, 17, n + 9]),
    ];
    let slab =
        |lo: f32, hi: f32| Aabb::new(Point3::new(lo, -10.0, -10.0), Point3::new(hi, 110.0, 110.0));
    let reads = [
        Request::Range(vec![slab(-10.0, 45.0), slab(40.0, 110.0), slab(20.0, 80.0)]),
        Request::Knn(
            [
                (10.0, 40.0),
                (30.0, 30.0),
                (60.0, 60.0),
                (80.0, 20.0),
                (25.0, 75.0),
            ]
            .iter()
            .enumerate()
            .map(|(k, &(x, y))| (Point3::new(x, y, x), k + 2))
            .collect(),
        ),
        Request::RangeCount(vec![slab(-10.0, 110.0)]),
    ];
    for shards in [1, 4] {
        let make = || ShardedEngine::build(&data, shards, build).with_rebuild(build);
        let (gated, gate) = GatedBackend::new(ShardedBackend::spawn(make()));
        let (entered_tx, entered) = mpsc::channel();
        let writes_made = Arc::new(AtomicUsize::new(0));
        let backend = CountingBackend {
            inner: gated,
            writes: Arc::clone(&writes_made),
            entered: Some(entered_tx),
        };
        let config = ServiceConfig::default().with_batching(16, Duration::from_millis(20));
        let service = SpatialService::spawn(backend, config);
        let handle = service.handle();
        // The read holds the dispatcher in the gated backend call; the
        // writes queue behind it, so the next dispatch drains all four.
        let held = handle.submit(one_box()).unwrap();
        entered.recv().unwrap();
        let tickets: Vec<Ticket> = writes
            .iter()
            .map(|w| handle.submit(w.clone()).unwrap())
            .collect();
        gate.send(()).unwrap();
        held.recv().unwrap();
        let acks: Vec<Reply> = tickets
            .into_iter()
            .map(|t| t.recv_reply().unwrap())
            .collect();
        let label = format!("{shards} shards");
        assert_eq!(
            writes_made.load(Ordering::SeqCst),
            1,
            "{label}: write calls"
        );
        assert!(acks.iter().all(|a| a.epoch == 1), "{label}: one epoch");
        let mut oracle = ShardedOracle(make());
        for (i, (write, ack)) in writes.iter().zip(acks).enumerate() {
            let want = expected(&mut oracle, write);
            assert_eq!(ack.response, want, "{label}: write {i}");
        }
        for (i, read) in reads.iter().enumerate() {
            let got = handle.submit(read.clone()).unwrap().recv().unwrap();
            match (got, expected(&mut oracle, read)) {
                (Response::Range(got), Response::Range(want)) => {
                    for (q, (mut got, mut want)) in got.into_iter().zip(want).enumerate() {
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "{label}: read {i} box {q}");
                    }
                }
                (got, want) => assert_eq!(got, want, "{label}: read {i}"),
            }
        }
        let stats = service.shutdown();
        assert_eq!(
            (stats.elements_inserted, stats.elements_removed),
            (2, 4),
            "{label}"
        );
        assert_eq!(stats.epochs_published, 2, "{label}");
    }
}

#[test]
fn read_only_backend_rejects_writes_at_admission() {
    let data = soup(200, 5);
    let service = SpatialService::spawn(
        ShardedBackend::spawn(ShardedEngine::build(&data, 1, LinearScan::build)),
        ServiceConfig::default(),
    );
    let handle = service.handle();
    assert!(!handle.capabilities().updates);
    match handle.submit(Request::StepDelta(vec![(0, beacon_target(0))])) {
        Err(SubmitError::ReadOnly(req)) => assert_eq!(req.len(), 1),
        other => panic!("write into read-only backend must be rejected, got {other:?}"),
    }
    let nonblocking = SubmitOptions {
        nonblocking: true,
        ..SubmitOptions::default()
    };
    match handle.submit_with(Request::StepDelta(vec![(0, beacon_target(1))]), nonblocking) {
        Err(SubmitError::ReadOnly(_)) => {}
        other => panic!("nonblocking write must be rejected, got {other:?}"),
    }
    // Reads still flow.
    assert!(handle.submit(one_box()).unwrap().recv().is_ok());
    service.shutdown();
}

/// One recorded observation of a query producer: the bracket of the
/// updates-applied counter around the request, and the response.
struct Observation {
    lo: u64,
    hi: u64,
    response: Response,
}

/// Builds the serial oracle for a given set of applied updates.
type OracleAt<'a> = dyn FnMut(&[(ElementId, Aabb)]) -> Box<dyn SerialOracle> + 'a;

const MIXED_UPDATES_PER_PRODUCER: u32 = 60;
const MIXED_QUERIES_PER_PRODUCER: u32 = 25;

/// Update slot of producer `p` (0/1), step `i`: element id and its target.
/// Ids are disjoint between producers (even/odd), so every interleaving of
/// the two submission orders is decodable from the visible id set.
fn mixed_update(p: u32, i: u32) -> (ElementId, Aabb) {
    let id = i * 2 + p;
    (id, beacon_target(id))
}

/// Drives 2 update producers + 2 query producers concurrently, then checks
/// every query response was byte-identical to the serial oracle state for
/// the *decoded* set of visible updates, and that the visible set respects
/// per-producer admission order (prefix-closed) and the stats bracket —
/// i.e. each response matches a serial interleaving honoring the write
/// barrier.
fn drive_mixed_and_verify(service: SpatialService, oracle_at: &mut OracleAt, label: &str) {
    let boxes = vec![
        beacon_all(),
        Aabb::new(Point3::new(10.0, 10.0, 10.0), Point3::new(55.0, 55.0, 55.0)),
    ];
    let observations: Vec<Vec<Observation>> = std::thread::scope(|scope| {
        // Update producers: pipelined single-update requests in fixed order.
        for p in 0..2u32 {
            let h = service.handle();
            scope.spawn(move || {
                let mut inflight = std::collections::VecDeque::new();
                for i in 0..MIXED_UPDATES_PER_PRODUCER {
                    let (id, bb) = mixed_update(p, i);
                    if inflight.len() == 4 {
                        let t: Ticket = inflight.pop_front().unwrap();
                        t.recv().expect("update completes");
                    }
                    inflight.push_back(h.submit(Request::StepDelta(vec![(id, bb)])).unwrap());
                }
                for t in inflight {
                    t.recv().expect("update completes");
                }
            });
        }
        // Query producers: bracket every request with the applied counter.
        let queriers: Vec<_> = (0..2u32)
            .map(|_| {
                let h = service.handle();
                let boxes = boxes.clone();
                scope.spawn(move || {
                    (0..MIXED_QUERIES_PER_PRODUCER)
                        .map(|_| {
                            let lo = h.stats().updates_applied;
                            let response = h
                                .submit(Request::Range(boxes.clone()))
                                .unwrap()
                                .recv()
                                .expect("query completes");
                            let hi = h.stats().updates_applied;
                            Observation { lo, hi, response }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        queriers.into_iter().map(|q| q.join().unwrap()).collect()
    });
    let stats = service.shutdown();
    assert_eq!(
        stats.updates_applied,
        u64::from(2 * MIXED_UPDATES_PER_PRODUCER),
        "{label}: every update applied exactly once"
    );

    for (q, obs) in observations.into_iter().enumerate() {
        for (i, ob) in obs.into_iter().enumerate() {
            let lists = match &ob.response {
                Response::Range(lists) => lists,
                other => panic!("{label}: unexpected response {other:?}"),
            };
            // Decode which updates this query saw from the beacon hits.
            let visible = &lists[0];
            assert!(
                (ob.lo..=ob.hi).contains(&(visible.len() as u64)),
                "{label}: query {q}/{i} saw {} updates outside bracket [{}, {}]",
                visible.len(),
                ob.lo,
                ob.hi
            );
            // Per-producer prefix-closedness: the visible ids of each
            // producer must be exactly its first k submissions.
            for p in 0..2u32 {
                let seen: Vec<u32> = visible
                    .iter()
                    .filter(|&&id| id % 2 == p)
                    .map(|&id| id / 2)
                    .collect();
                let max = seen.iter().copied().max().map_or(0, |m| m + 1);
                assert_eq!(
                    seen.len() as u32,
                    max,
                    "{label}: query {q}/{i} producer {p} visibility not prefix-closed: {seen:?}"
                );
            }
            // Byte-identical to the serial oracle at the decoded state.
            let applied: Vec<(ElementId, Aabb)> =
                visible.iter().map(|&id| (id, beacon_target(id))).collect();
            let mut oracle = oracle_at(&applied);
            let want = oracle.range(&boxes);
            assert_eq!(
                lists,
                &want,
                "{label}: query {q}/{i} diverged from serial oracle at {} updates",
                applied.len()
            );
        }
    }
}

#[test]
fn mixed_producers_match_serial_on_engine_backend() {
    let data = soup(WRITE_SOUP, 0xAB1E);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let service = SpatialService::spawn(
        ShardedBackend::spawn(
            ShardedEngine::build(&data, 1, rebuild_only(build)).with_rebuild(rebuild_only(build)),
        ),
        ServiceConfig::default(),
    );
    let mut oracle_at = |applied: &[(ElementId, Aabb)]| {
        let mut oracle = RebuildOracle::new(data.clone(), build);
        let updates: Vec<WriteOp> = applied
            .iter()
            .map(|&(id, bb)| WriteOp::Set(id, Shape::Box(bb)))
            .collect();
        oracle.apply(&updates);
        Box::new(oracle) as Box<dyn SerialOracle>
    };
    drive_mixed_and_verify(service, &mut oracle_at, "mixed engine/grid");
}

#[test]
fn mixed_producers_match_serial_on_sharded_backends() {
    let data = soup(WRITE_SOUP, 0xB0B0);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    for median in [false, true] {
        let make = || {
            if median {
                ShardedEngine::build_median(&data, 4, rebuild_only(build))
                    .with_rebuild(rebuild_only(build))
            } else {
                ShardedEngine::build(&data, 3, rebuild_only(build))
                    .with_rebuild(rebuild_only(build))
            }
        };
        let service =
            SpatialService::spawn(ShardedBackend::spawn(make()), ServiceConfig::default());
        let handle = service.handle();
        let mut oracle_at = |applied: &[(ElementId, Aabb)]| {
            let mut oracle = ShardedOracle(make());
            let updates: Vec<WriteOp> = applied
                .iter()
                .map(|&(id, bb)| WriteOp::Set(id, Shape::Box(bb)))
                .collect();
            oracle.apply(&updates);
            Box::new(oracle) as Box<dyn SerialOracle>
        };
        drive_mixed_and_verify(
            service,
            &mut oracle_at,
            &format!("mixed sharded median={median}"),
        );
        // The beacon sits in one slab while sources span all of them:
        // updates must have crossed shard boundaries.
        let _ = handle;
    }
}

#[test]
fn sharded_service_reflects_post_migration_sizes() {
    // Drain most elements into the beacon slab through the service and
    // check the surfaced gauges follow the migrations.
    let data = soup(1000, 0xCAB5);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let service = SpatialService::spawn(
        ShardedBackend::spawn(ShardedEngine::build(&data, 4, build).with_rebuild(build)),
        ServiceConfig::default(),
    );
    let handle = service.handle();
    let before = handle.stats();
    let updates: Vec<(ElementId, Aabb)> = (0..1000u32).map(|id| (id, beacon_target(id))).collect();
    handle
        .submit(Request::StepDelta(updates))
        .unwrap()
        .recv()
        .unwrap();
    let after = handle.stats();
    assert_eq!(after.updates_applied, 1000);
    assert!(after.migrations > 0, "beacon drain must migrate");
    assert_ne!(
        before.shard_sizes, after.shard_sizes,
        "shard sizes must be refreshed after migration"
    );
    // Everything now lives in the slab the beacon routes to: exactly one
    // non-empty shard, and the surfaced sizes say so.
    let nonempty: Vec<usize> = after
        .shard_sizes
        .iter()
        .copied()
        .filter(|&s| s > 0)
        .collect();
    assert_eq!(nonempty, vec![1000], "{:?}", after.shard_sizes);
    // The gauge is live, not a spawn-time snapshot (index sizes may grow or
    // shrink with the new layout; the clone/id-map shrink itself is proven
    // at the executor level in the index crate's tests).
    assert_ne!(
        after.memory_bytes, before.memory_bytes,
        "memory gauge must be refreshed after migration"
    );
    service.shutdown();
}

/// The sharded backend's memory gauge, itemised: the parts sum to
/// `memory_bytes()` on 1- and 4-shard grid backends, fresh and after a
/// migration write, and the planner's part is its 2 B per element route
/// table — it holds no geometry.
#[test]
fn sharded_backend_memory_parts_sum_to_memory_bytes() {
    let data = soup(1000, 0x3E3);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    for shards in [1, 4] {
        let mut backend =
            ShardedBackend::spawn(ShardedEngine::build(&data, shards, build).with_rebuild(build));
        let check = |backend: &ShardedBackend, step: &str| {
            let parts = backend.memory_parts();
            assert_eq!(
                parts.total(),
                backend.memory_bytes(),
                "{shards} shards, {step}"
            );
            let elems = data.len();
            assert!(
                parts.clones >= elems * std::mem::size_of::<Element>(),
                "{step}"
            );
            assert!(
                parts.id_maps >= elems * std::mem::size_of::<ElementId>(),
                "{step}"
            );
            assert!(parts.indexes > 0, "{step}");
            assert!(
                (2 * elems..3 * elems).contains(&parts.route_table),
                "{shards} shards, {step}: route table {} B for {elems} elements",
                parts.route_table
            );
        };
        check(&backend, "fresh");
        let ops: Vec<WriteOp> = (0..1000u32)
            .step_by(3)
            .map(|id| WriteOp::Set(id, Shape::Box(beacon_target(id))))
            .collect();
        let (_, report) = backend.write_batch(&ops);
        assert!(
            shards == 1 || report.stats.migrations > 0,
            "the write migrates"
        );
        assert!(
            backend.memory_parts().lanes > 0,
            "the write's lanes are counted"
        );
        check(&backend, "after a migration write");
        backend.shutdown();
    }
}

/// A read-only service's memory gauge is the backend's footprint after
/// every run, read scratch included: after a range request whose boxes
/// straddle the shard cuts, and again after a kNN request, it rises above
/// its spawn value and equals a twin backend that ran the same query runs
/// directly. The merges keep no table that grows with the id bound.
#[test]
fn read_only_service_gauges_include_read_scratch() {
    let data = soup(20_000, 0x6A7);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let service = SpatialService::spawn(
        ShardedBackend::spawn(ShardedEngine::build(&data, 4, build)),
        ServiceConfig::default().no_coalesce(),
    );
    let mut twin = ShardedBackend::spawn(ShardedEngine::build(&data, 4, build));
    let handle = service.handle();
    let spawned = handle.stats().memory_bytes;
    assert_eq!(spawned, twin.memory_bytes(), "spawn-time gauge");
    let straddling = vec![
        Aabb::new(Point3::new(20.0, 20.0, 20.0), Point3::new(80.0, 80.0, 80.0)),
        Aabb::new(Point3::new(0.0, 45.0, 45.0), Point3::new(100.0, 55.0, 55.0)),
        Aabb::new(Point3::new(45.0, 0.0, 45.0), Point3::new(55.0, 100.0, 55.0)),
        Aabb::new(Point3::new(45.0, 45.0, 0.0), Point3::new(55.0, 55.0, 100.0)),
    ];
    let probes = vec![
        (Point3::new(25.0, 25.0, 25.0), 8),
        (Point3::new(50.0, 50.0, 50.0), 8),
        (Point3::new(75.0, 10.0, 90.0), 8),
    ];
    let runs = [
        (
            Request::Range(straddling.clone()),
            QueryRun {
                range: straddling,
                knn: Vec::new(),
            },
        ),
        (
            Request::Knn(probes.clone()),
            QueryRun {
                range: Vec::new(),
                knn: probes,
            },
        ),
    ];
    let mut out = QueryRunResults::default();
    for (request, run) in runs {
        handle.submit(request).unwrap().recv().unwrap();
        twin.query_run(&run, false, &mut out);
        let gauge = handle.stats().memory_bytes;
        assert!(
            gauge > spawned,
            "{gauge} B after a read, {spawned} B at spawn"
        );
        assert_eq!(gauge, twin.memory_bytes(), "gauge vs the twin backend");
        let merge_scratch = twin.memory_parts().merge_scratch;
        assert!(
            merge_scratch * 10 < data.len(),
            "merge scratch {merge_scratch} B for {} elements",
            data.len()
        );
    }
    service.shutdown();
    twin.shutdown();
}

#[test]
fn coalescing_forms_multi_request_batches() {
    // With a wedged first dispatch and pipelined submissions, the second
    // dispatch must coalesce several requests into one batch.
    let data = soup(400, 4);
    let (backend, gate) = GatedBackend::new(small_backend(&data));
    let service = SpatialService::spawn(
        backend,
        ServiceConfig::default().with_batching(64, Duration::from_micros(50)),
    );
    let handle = service.handle();
    let first = handle.submit(one_box()).unwrap();
    // Wait until the dispatcher has the first request in hand (queue empty),
    // then pile up a burst behind the gate.
    while handle.stats().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let burst: Vec<Ticket> = (0..12).map(|_| handle.submit(one_box()).unwrap()).collect();
    gate.send(()).unwrap();
    first.recv().unwrap();
    for t in burst {
        t.recv().unwrap();
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 13);
    assert!(
        stats.dispatches < 13,
        "burst must coalesce: {} dispatches for 13 requests",
        stats.dispatches
    );
    assert!(stats.mean_batch() > 1.0);
    assert!(stats.max_queue_depth >= 2);
}
