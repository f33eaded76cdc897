//! Multicore pool coverage for the sharded service backend.
//!
//! * **Work stealing**: with 2 pool workers and shard 0 wedged by an
//!   injected delay, the idle worker must steal shard 2's job from the
//!   wedged owner's queue — observable in `worker_steals` — and the batch
//!   still returns complete results. With shard 1 wedged on the pool
//!   thread instead, the gathering thread (worker 0) steals shard 3's job,
//!   and its steal and busy time are counted.
//! * **Thread-count differential**: a coalesced mixed range/kNN run (one
//!   range batch, one kNN batch of mixed `k`) through
//!   `ShardedBackend::query_run` returns byte-identical results at 1, 2
//!   and 4 pool workers, and matches a serial `ShardedEngine` over the
//!   same data. With a shard dead, the combined run and the same run as a
//!   range-only plus a kNN-only run agree on results and on their
//!   `partial`/`failed` reports: a sub-batch's answer does not depend on
//!   what else its run carries.
//! * **Observability**: the pool gauges (`worker_busy_ns`,
//!   `worker_steals`) flow through `ServiceStats` and its `summary()`.
//! * **Thread topology**: the thread that calls the backend is pool worker
//!   0, so a K-worker pool runs its lanes on at most K threads, at most
//!   K − 1 of them pool threads; a one-worker pool (one shard, or one
//!   thread) spawns no thread and runs every lane on the caller.
//! * **Serial reference**: a 4-shard `ShardedEngine` runs every write,
//!   range and kNN lane on the thread that calls it, even with 4 threads
//!   to spend.
//! * **Zero-length requests**: a `Range`, `RangeCount` or `Knn` request
//!   with nothing in it gets an empty reply, alone or coalesced, on one
//!   shard and on four, and fails nothing. A `StepDelta`, `Insert` or
//!   `Remove` with nothing in it reaches no backend and publishes no
//!   epoch: its ack carries the epoch before it. A fresh service counts
//!   its startup epoch as published before any request.

mod common;

use common::{sets, soup, RebuildOnly};
use simspatial::prelude::*;
use simspatial_geom::{parallel, QueryScratch};
use simspatial_service::{BatchReport, QueryRun, QueryRunResults, SupervisorPolicy};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `parallel::set_num_threads` is process-global, so tests that reconfigure
/// it serialize on this lock and restore the previous value before exit.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn sharded_engine(shards: usize) -> ShardedEngine<UniformGrid> {
    let data = soup(4000, 7);
    ShardedEngine::build(&data, shards, |part| {
        UniformGrid::build(part, GridConfig::auto(part))
    })
}

fn sharded_backend(shards: usize) -> ShardedBackend {
    ShardedBackend::spawn(sharded_engine(shards))
}

/// A 4-shard backend whose shard 1 dies on its first job: no restart
/// budget, and a panic installed at job sequence 0.
fn dying_shard_backend() -> ShardedBackend {
    let policy = SupervisorPolicy {
        max_restarts: 0,
        ..SupervisorPolicy::default()
    };
    let mut backend = ShardedBackend::spawn_with(sharded_engine(4), policy);
    backend.install_worker_faults(&[(1, 0, FaultKind::Panic)]);
    backend
}

fn ran(report: Option<&BatchReport>) -> &BatchReport {
    report.expect("sub-batch did not run")
}

/// Dead-shard input: the run as one combined `query_run` (the production
/// shape) and as a range-only plus a kNN-only run must degrade
/// identically — same surviving results, same `partial` (range) and
/// `failed` (kNN) reports — because a sub-batch's answer is independent of
/// the other sub-batch of its run.
fn assert_combined_run_matches_one_sub_batch_runs(run: &QueryRun) {
    let mut combined = dying_shard_backend();
    let mut split = dying_shard_backend();

    let mut combined_out = QueryRunResults::default();
    let combined_report = combined.query_run(run, false, &mut combined_out);
    let range_only = QueryRun {
        range: run.range.clone(),
        knn: Vec::new(),
    };
    let mut split_out = QueryRunResults::default();
    let report = split.query_run(&range_only, false, &mut split_out);
    assert_eq!(combined.dead_shards(), vec![1]);
    assert_eq!(split.dead_shards(), vec![1]);
    let combined_range = ran(combined_report.range.as_ref());
    let split_range = ran(report.range.as_ref());
    assert!(!combined_range.partial.is_empty(), "no box reached shard 1");
    assert_eq!(combined_range.partial, split_range.partial);
    assert_eq!(combined_range.failed, split_range.failed);
    for q in 0..run.range.len() {
        assert_eq!(
            combined_out.range.query_results(q),
            split_out.range.query_results(q)
        );
    }

    let knn_only = QueryRun {
        range: Vec::new(),
        knn: run.knn.clone(),
    };
    let report = split.query_run(&knn_only, false, &mut split_out);
    let combined_knn = ran(combined_report.knn.as_ref());
    let split_knn = ran(report.knn.as_ref());
    assert_eq!(combined_knn.failed, split_knn.failed);
    assert_eq!(combined_knn.partial, split_knn.partial);
    assert!(!combined_knn.failed.is_empty(), "no probe needed shard 1");
    for (p, (_, k)) in run.knn.iter().enumerate() {
        assert_eq!(
            combined_out.knn.query_results(p),
            split_out.knn.query_results(p),
            "k={k} probe {p}"
        );
    }
}

fn mix(h: u32) -> u32 {
    let mut h = h.wrapping_mul(0x9E37_79B9) ^ 0xABCD_1234;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^ (h >> 13)
}

/// A run with both sub-batches: 12 range boxes plus one kNN batch of 24
/// probes, 8 each at k = 1, 5 and 9, spread across all shards.
fn mixed_run() -> QueryRun {
    let mut run = QueryRun::default();
    for i in 0..12u32 {
        let h = mix(i);
        let c = Point3::new(
            (h % 90) as f32,
            ((h >> 8) % 90) as f32,
            ((h >> 16) % 90) as f32,
        );
        let w = 4.0 + (h % 5) as f32 * 6.0;
        run.range
            .push(Aabb::new(c, Point3::new(c.x + w, c.y + w, c.z + w)));
    }
    for k in [1usize, 5, 9] {
        run.knn.extend((0..8u32).map(|i| {
            let h = mix(1000 + 31 * k as u32 + i);
            let p = Point3::new(
                (h % 97) as f32,
                ((h >> 8) % 97) as f32,
                ((h >> 16) % 97) as f32,
            );
            (p, k)
        }));
    }
    run
}

/// A 4-shard backend on a pool of 2 whose shard `wedged` has its first job
/// delayed by 80 ms, after one range query over everything, which must
/// come back complete. Shards 0 and 2 land on worker 0's queue (the
/// calling thread's), shards 1 and 3 on pool thread 1's.
fn backend_after_wedged_run(wedged: usize) -> ShardedBackend {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = parallel::num_threads();
    parallel::set_num_threads(2);
    let mut backend = sharded_backend(4);
    assert_eq!(backend.pool_workers(), 2);
    backend.install_worker_faults(&[(wedged, 0, FaultKind::Delay(Duration::from_millis(80)))]);
    let everything = Aabb::new(Point3::new(-1e6, -1e6, -1e6), Point3::new(1e6, 1e6, 1e6));
    let run = QueryRun {
        range: vec![everything],
        knn: Vec::new(),
    };
    let mut out = QueryRunResults::default();
    let report = backend.query_run(&run, false, &mut out);
    let report = ran(report.range.as_ref());
    assert!(report.failed.is_empty() && report.partial.is_empty());
    assert_eq!(out.range.query_results(0).len(), 4000);
    parallel::set_num_threads(old);
    backend
}

/// Wedging shard 0's first job forces the pool thread (done with its own
/// queue long before the delay elapses) to steal shard 2's job.
#[test]
fn idle_worker_steals_from_wedged_owner_queue() {
    let mut backend = backend_after_wedged_run(0);
    let t = backend.telemetry();
    assert!(t.worker_steals >= 1, "expected a steal, telemetry: {t:?}");
    assert_eq!(t.worker_busy_ns.len(), 2);
    assert!(t.worker_busy_ns.iter().sum::<u64>() > 0);
    backend.shutdown();
    assert_eq!(
        backend.pool_workers(),
        2,
        "the worker count survives shutdown"
    );
}

/// With shard 1's first job wedged on pool thread 1, the gathering thread
/// runs its own queue while it gathers and then steals shard 3's job: it
/// counts the steal and charges its time to worker 0.
#[test]
fn gathering_thread_steals_from_wedged_pool_thread_queue() {
    let t = backend_after_wedged_run(1).telemetry();
    assert!(t.worker_steals >= 1, "expected a steal, telemetry: {t:?}");
    assert_eq!(t.worker_busy_ns.len(), 2);
    assert!(
        t.worker_busy_ns[0] > 0,
        "the gathering thread ran no lane, telemetry: {t:?}"
    );
}

/// Which threads ran the write lanes of one `write_batch` that moves every
/// element, called directly from this thread: each lane rebuilds its shard
/// through the rebuild function, which records its thread's id and name
/// (calls made while the backend is built do not count).
fn lane_threads(shards: usize) -> Vec<(std::thread::ThreadId, Option<String>)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let spawned = Arc::new(AtomicBool::new(false));
    let build = {
        let (seen, spawned) = (Arc::clone(&seen), Arc::clone(&spawned));
        move |part: &[Element]| {
            if spawned.load(Ordering::SeqCst) {
                let me = std::thread::current();
                seen.lock()
                    .unwrap()
                    .push((me.id(), me.name().map(str::to_owned)));
            }
            RebuildOnly(UniformGrid::build(part, GridConfig::auto(part)))
        }
    };
    let data = soup(4000, 7);
    let engine = ShardedEngine::build(&data, shards, &build).with_rebuild(build);
    let mut backend = ShardedBackend::spawn(engine);
    spawned.store(true, Ordering::SeqCst);
    let nudge = Vec3::new(0.01, 0.01, 0.01);
    let updates: Vec<(ElementId, Shape)> = data
        .iter()
        .map(|e| (e.id, Shape::Box(e.aabb().translate(nudge))))
        .collect();
    assert!(backend.write_batch(&sets(&updates)).1.failed.is_none());
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen.len(), shards, "one rebuilding lane per shard");
    seen
}

/// The caller of the backend is pool worker 0. A one-worker pool spawns no
/// thread, so every lane runs on the caller; a K-worker pool spawns the
/// K − 1 threads `simspatial-pool-1..K-1`, so its lanes run on at most K
/// threads, the caller and pool threads. Which worker takes which lane is
/// left to timing, so nothing here depends on it.
#[test]
fn lanes_run_on_the_caller_when_one_worker_serves() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = parallel::num_threads();
    let caller = std::thread::current().id();
    for (shards, threads) in [(1, 2), (4, 1)] {
        parallel::set_num_threads(threads);
        let seen = lane_threads(shards);
        assert!(
            seen.iter().all(|(t, _)| *t == caller),
            "{shards} shards at {threads} threads: lanes ran on {seen:?}, caller {caller:?}"
        );
    }
    for k in [2usize, 4] {
        parallel::set_num_threads(k);
        let seen = lane_threads(4);
        let distinct: HashSet<_> = seen.iter().map(|(t, _)| *t).collect();
        let pool_threads = distinct.iter().filter(|&&t| t != caller).count();
        assert!(
            distinct.len() <= k && pool_threads < k,
            "K = {k}: lanes ran on {seen:?}, caller {caller:?}"
        );
        for (_, name) in seen.iter().filter(|(t, _)| *t != caller) {
            let w = name
                .as_deref()
                .and_then(|n| n.strip_prefix("simspatial-pool-"))
                .and_then(|w| w.parse::<usize>().ok());
            assert!(
                w.is_some_and(|w| (1..k).contains(&w)),
                "K = {k}: a lane ran on {name:?}, not on a pool thread 1..{k}"
            );
        }
    }
    parallel::set_num_threads(old);
}

/// A grid that records the thread of every range and kNN probe it serves.
/// It declines in-place writes, so each write lane rebuilds its shard.
struct ThreadRecorder {
    grid: UniformGrid,
    seen: Arc<Mutex<Vec<std::thread::ThreadId>>>,
}

impl ThreadRecorder {
    fn record(&self) {
        self.seen.lock().unwrap().push(std::thread::current().id());
    }
}

impl SpatialIndex for ThreadRecorder {
    fn name(&self) -> &'static str {
        "thread recorder"
    }

    fn len(&self) -> usize {
        self.grid.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.record();
        self.grid.range_into(data, query, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes()
    }
}

impl KnnIndex for ThreadRecorder {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        self.record();
        self.grid.knn_into(data, p, k, scratch, sink);
    }
}

/// The serial reference spawns no thread: with 4 threads to spend, a
/// 4-shard `ShardedEngine` runs every lane of a write batch (each rebuilds
/// its shard through the rebuild function, which records its thread), of
/// a range batch and of a kNN batch on the thread that calls it.
#[test]
fn sharded_engine_runs_every_lane_on_the_caller() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = parallel::num_threads();
    parallel::set_num_threads(4);
    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let build = {
        let seen = Arc::clone(&seen);
        move |part: &[Element]| {
            seen.lock().unwrap().push(std::thread::current().id());
            ThreadRecorder {
                grid: UniformGrid::build(part, GridConfig::auto(part)),
                seen: Arc::clone(&seen),
            }
        }
    };
    let data = soup(4000, 7);
    let mut engine = ShardedEngine::build(&data, 4, &build).with_rebuild(build);
    let ran_on = |what: &str, lanes: usize| {
        let threads = std::mem::take(&mut *seen.lock().unwrap());
        assert!(threads.len() >= lanes, "{what}: {threads:?}");
        assert!(
            threads.iter().all(|&t| t == caller),
            "{what}: lanes ran on {threads:?}, caller {caller:?}"
        );
    };
    ran_on("build", 4);

    let nudge = Vec3::new(0.01, 0.01, 0.01);
    let updates: Vec<(ElementId, Shape)> = data
        .iter()
        .map(|e| (e.id, Shape::Box(e.aabb().translate(nudge))))
        .collect();
    assert_eq!(engine.write_batch(&sets(&updates)).1.rebuilds, 4);
    ran_on("write batch", 4);

    let everything = Aabb::union_all(data.iter().map(Element::aabb));
    let queries: Vec<Aabb> = (0..8)
        .map(|i| {
            let lo = Point3::new(i as f32 * 12.0, 0.0, 0.0);
            Aabb::new(lo, Point3::new(lo.x + 15.0, 100.0, 100.0))
        })
        .chain([everything])
        .collect();
    engine.range_collect(&queries, &mut BatchResults::new());
    ran_on("range batch", 4);

    let points: Vec<Point3> = (0..8)
        .map(|i| Point3::new(i as f32 * 12.5, 50.0, 50.0))
        .collect();
    engine.knn_collect(&points, 5, &mut KnnBatchResults::new());
    ran_on("kNN batch", points.len());
    parallel::set_num_threads(old);
}

#[test]
fn query_run_matches_sequential_at_every_thread_count() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = parallel::num_threads();
    let run = mixed_run();

    // Oracle: a serial `ShardedEngine` over the same data — every backend
    // run goes through the executor under test, so none can serve as its
    // reference.
    parallel::set_num_threads(1);
    let mut oracle = sharded_engine(4);
    let mut range_out = BatchResults::new();
    oracle.range_collect(&run.range, &mut range_out);
    let oracle_range: Vec<Vec<ElementId>> = (0..run.range.len())
        .map(|q| range_out.query_results(q).to_vec())
        .collect();
    let mut oracle_knn = Vec::new();
    for (p, k) in &run.knn {
        let mut out = KnnBatchResults::new();
        oracle.knn_collect(&[*p], *k, &mut out);
        oracle_knn.push(out.query_results(0).to_vec());
    }

    for threads in [1usize, 2, 4] {
        parallel::set_num_threads(threads);
        let mut backend = sharded_backend(4);
        assert_eq!(backend.pool_workers(), threads);
        let mut out = QueryRunResults::default();
        let report = backend.query_run(&run, false, &mut out);
        assert!(report.range.is_some());
        assert!(report.knn.is_some());
        for (q, expected) in oracle_range.iter().enumerate() {
            assert_eq!(
                out.range.query_results(q),
                &expected[..],
                "range query {q} diverged at {threads} threads"
            );
        }
        for (p, ((_, k), expected)) in run.knn.iter().zip(&oracle_knn).enumerate() {
            assert_eq!(
                out.knn.query_results(p),
                &expected[..],
                "kNN k={k} probe {p} diverged at {threads} threads"
            );
        }
        assert_combined_run_matches_one_sub_batch_runs(&run);
    }
    parallel::set_num_threads(old);
}

#[test]
fn service_stats_surface_pool_gauges() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = parallel::num_threads();
    parallel::set_num_threads(2);
    let service = SpatialService::spawn(sharded_backend(4), ServiceConfig::default());
    let handle = service.handle();
    let tickets: Vec<_> = (0..16u32)
        .map(|i| {
            let c = i as f32 * 5.0;
            handle
                .submit(Request::Range(vec![Aabb::new(
                    Point3::new(c, c, c),
                    Point3::new(c + 20.0, c + 20.0, c + 20.0),
                )]))
                .unwrap()
        })
        .collect();
    for t in tickets {
        t.recv().unwrap();
    }
    let stats = service.shutdown();
    assert_eq!(stats.worker_busy_ns.len(), 2);
    assert!(stats.worker_busy_ns.iter().sum::<u64>() > 0);
    let summary = stats.summary();
    assert!(summary.contains("pool: 2 workers"), "summary:\n{summary}");
    parallel::set_num_threads(old);
}

/// A request with no boxes or probes is answered with an empty response
/// whether it runs alone or coalesced with ordinary requests, on one
/// shard and on four; it fails nothing and the service keeps answering.
#[test]
fn zero_length_requests_get_empty_replies() {
    let run = mixed_run();
    let ordinary = [
        Request::Range(run.range[..4].to_vec()),
        Request::RangeCount(run.range[4..8].to_vec()),
        Request::Knn(run.knn[..6].to_vec()),
    ];
    let empty = [
        Request::Range(vec![]),
        Request::RangeCount(vec![]),
        Request::Knn(vec![]),
    ];
    let is_empty = |response: &Response| match response {
        Response::Range(r) => r.is_empty(),
        Response::RangeCount(r) => r.is_empty(),
        Response::Knn(r) => r.is_empty(),
        other => panic!("not a query response: {other:?}"),
    };
    for shards in [1, 4] {
        let service = SpatialService::spawn(sharded_backend(shards), ServiceConfig::default());
        let handle = service.handle();
        let ask = |request: &Request| handle.submit(request.clone()).unwrap().recv().unwrap();
        let expected: Vec<Response> = ordinary.iter().map(ask).collect();
        // Alone: each is its dispatch's only request.
        for request in &empty {
            assert!(is_empty(&ask(request)), "{shards} shards: {request:?}");
        }
        // Mixed: submitted back to back, so they coalesce with ordinary
        // requests of every kind.
        let tickets: Vec<_> = ordinary
            .iter()
            .zip(&empty)
            .flat_map(|(o, e)| [e, o, e])
            .map(|request| handle.submit(request.clone()).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.recv().unwrap();
            if i % 3 == 1 {
                assert_eq!(response, expected[i / 3], "{shards} shards: request {i}");
            } else {
                assert!(is_empty(&response), "{shards} shards: request {i}");
            }
        }
        // Still answering afterwards.
        let again: Vec<Response> = ordinary.iter().map(ask).collect();
        assert_eq!(again, expected, "{shards} shards");
        let stats = service.shutdown();
        assert_eq!(stats.failed_requests, 0, "{shards} shards");
    }
}

/// Epoch 0 is published when the service starts, so a fresh service
/// reports it before any request reaches the dispatcher.
#[test]
fn fresh_service_counts_the_startup_epoch() {
    let service = SpatialService::spawn(sharded_backend(4), ServiceConfig::default());
    let stats = service.stats();
    assert_eq!(stats.current_epoch, 0);
    assert_eq!(stats.epochs_published, 1);
    assert_eq!(service.shutdown().epochs_published, 1);
}

/// A write with nothing in it publishes nothing. Served alone, an empty
/// `StepDelta`, `Insert` or `Remove` is acked with the current epoch and
/// leaves `epochs_published` as it was. Submitted back to back with
/// non-empty writes and reads, each empty write is acked with the epoch of
/// the non-empty write before it, however the dispatches split the stream,
/// and only the non-empty writes publish. On one writable shard and on
/// four.
#[test]
fn zero_length_writes_publish_no_epoch() {
    let data = soup(4000, 7);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let at = |x: f32| Aabb::new(Point3::new(x, 5.0, 5.0), Point3::new(x + 1.0, 6.0, 6.0));
    let empty = [
        Request::StepDelta(vec![]),
        Request::Insert(vec![]),
        Request::Remove(vec![]),
    ];
    let read = Request::Range(vec![at(10.0)]);
    for shards in [1, 4] {
        let engine = ShardedEngine::build(&data, shards, build).with_rebuild(build);
        let service =
            SpatialService::spawn(ShardedBackend::spawn(engine), ServiceConfig::default());
        let handle = service.handle();
        let submit = |request: &Request| handle.submit(request.clone()).unwrap();
        let published = || service.stats().epochs_published;
        // Alone: each is its dispatch's only request.
        for request in &empty {
            let ack = submit(request).recv_reply().unwrap();
            assert_eq!(ack.epoch, 0, "{shards} shards: {request:?}");
            assert_eq!(ack.response.into_applied(), Some(0));
            assert_eq!(
                published(),
                1,
                "{shards} shards: {request:?} after the startup epoch"
            );
        }
        // Back to back: `Some(w)` marks the w-th non-empty write, `None`
        // an empty write or a read.
        let stream = [
            (Request::StepDelta(vec![(3, at(20.0))]), Some(1)),
            (empty[0].clone(), None),
            (empty[1].clone(), None),
            (empty[2].clone(), None),
            (read.clone(), None),
            (empty[1].clone(), None),
            (read.clone(), None),
            (Request::Insert(vec![at(30.0)]), Some(2)),
            (empty[2].clone(), None),
            (empty[0].clone(), None),
            (read.clone(), None),
            (empty[2].clone(), None),
        ];
        let tickets: Vec<_> = stream.iter().map(|(r, _)| submit(r)).collect();
        let mut last_write = 0;
        for (i, (ticket, (request, write))) in tickets.into_iter().zip(&stream).enumerate() {
            let reply = ticket.recv_reply().unwrap();
            let label = format!("{shards} shards: request {i} {request:?}");
            match *write {
                Some(w) => {
                    assert_eq!(reply.epoch, w, "{label}");
                    last_write = w;
                }
                None if request.is_write() => assert_eq!(reply.epoch, last_write, "{label}"),
                None => {}
            }
        }
        assert_eq!(published(), 3, "{shards} shards: the two non-empty writes");
        let stats = service.shutdown();
        assert_eq!(stats.failed_requests, 0, "{shards} shards");
        assert_eq!(stats.elements_inserted, 1, "{shards} shards");
    }
}
