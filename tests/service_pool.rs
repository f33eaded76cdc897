//! Multicore pool coverage for the sharded service backend.
//!
//! * **Work stealing**: with 2 pool workers and shard 0 wedged by an
//!   injected delay, the idle worker must steal shard 2's job from the
//!   wedged owner's queue — observable in `worker_steals` — and the batch
//!   still returns complete results.
//! * **Thread-count differential**: a coalesced mixed range/kNN run
//!   through `ShardedBackend::query_run` returns byte-identical results
//!   at 1, 2 and 4 pool workers, and matches a serial `ShardedEngine`
//!   over the same data. With a shard dead, the two run shapes that occur
//!   — the combined mixed run the scheduler issues, and the same run as
//!   one-sub-batch runs (what `ChaosBackend` hands its inner backend) —
//!   agree on results and on their `partial`/`failed` reports.
//! * **Observability**: the pool gauges (`worker_busy_ns`,
//!   `worker_steals`) flow through `ServiceStats` and its `summary()`.
//! * **Inline pool**: a one-worker pool (one shard, or one thread) spawns
//!   no thread, so its lanes run on the thread that calls the backend.

mod common;

use common::soup;
use simspatial::prelude::*;
use simspatial_geom::parallel;
use simspatial_service::{
    BatchReport, QueryRun, QueryRunResults, SubBatchOutcome, SupervisorPolicy,
};
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

fn ran(outcome: Option<&SubBatchOutcome>) -> &BatchReport {
    match outcome {
        Some(SubBatchOutcome::Ran(report)) => report,
        other => panic!("sub-batch did not run: {other:?}"),
    }
}

/// Dead-shard input: the run as one combined `query_run` (the production
/// shape) and as one-sub-batch runs (the `ChaosBackend` shape) must
/// degrade identically — same surviving results, same `partial` (range)
/// and `failed` (kNN) reports.
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

    let mut failed_probes = 0;
    for (g, (k, pts)) in run.knn.iter().enumerate() {
        let knn_only = QueryRun {
            range: Vec::new(),
            knn: vec![(*k, pts.clone())],
        };
        let report = split.query_run(&knn_only, false, &mut split_out);
        let combined_knn = ran(combined_report.knn.get(g));
        let split_knn = ran(report.knn.first());
        assert_eq!(combined_knn.failed, split_knn.failed, "k={k}");
        assert_eq!(combined_knn.partial, split_knn.partial, "k={k}");
        failed_probes += combined_knn.failed.len();
        for p in 0..pts.len() {
            assert_eq!(
                combined_out.knn[g].query_results(p),
                split_out.knn[0].query_results(p),
                "k={k} probe {p}"
            );
        }
    }
    assert!(failed_probes > 0, "no probe needed shard 1");
}

fn mix(h: u32) -> u32 {
    let mut h = h.wrapping_mul(0x9E37_79B9) ^ 0xABCD_1234;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^ (h >> 13)
}

/// A run with every sub-batch family: 12 range boxes plus three kNN
/// groups (k = 1, 5, 9) of 8 probes each, spread across all shards.
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
        let probes: Vec<Point3> = (0..8u32)
            .map(|i| {
                let h = mix(1000 + 31 * k as u32 + i);
                Point3::new(
                    (h % 97) as f32,
                    ((h >> 8) % 97) as f32,
                    ((h >> 16) % 97) as f32,
                )
            })
            .collect();
        run.knn.push((k, probes));
    }
    run
}

#[test]
fn idle_worker_steals_from_wedged_owner_queue() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = parallel::num_threads();
    parallel::set_num_threads(2);
    let mut backend = sharded_backend(4);
    assert_eq!(backend.pool_workers(), 2);
    // Shards 0 and 2 land on worker 0's queue, shards 1 and 3 on worker
    // 1's. Wedging shard 0's first job forces worker 1 (done with its own
    // queue long before the delay elapses) to steal shard 2's job.
    backend.install_worker_faults(&[(0, 0, FaultKind::Delay(Duration::from_millis(80)))]);
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
    parallel::set_num_threads(old);
}

/// Which threads ran the write lanes of one `update_batch` that moves every
/// element, called directly from this thread: each lane rebuilds its shard
/// through the rebuild function, which records its thread (calls made
/// while the backend is built do not count).
fn lane_threads(shards: usize) -> Vec<std::thread::ThreadId> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let spawned = Arc::new(AtomicBool::new(false));
    let build = {
        let (seen, spawned) = (Arc::clone(&seen), Arc::clone(&spawned));
        move |part: &[Element]| {
            if spawned.load(Ordering::SeqCst) {
                seen.lock().unwrap().push(std::thread::current().id());
            }
            UniformGrid::build(part, GridConfig::auto(part))
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
    assert!(backend.update_batch(&updates).failed.is_none());
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen.len(), shards, "one rebuilding lane per shard");
    seen
}

#[test]
fn lanes_run_on_the_caller_when_one_worker_serves() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let old = parallel::num_threads();
    let caller = std::thread::current().id();
    for (shards, threads, inline) in [(1, 2, true), (4, 1, true), (4, 2, false)] {
        parallel::set_num_threads(threads);
        let seen = lane_threads(shards);
        assert!(
            seen.iter().all(|&t| (t == caller) == inline),
            "{shards} shards at {threads} threads: lanes ran on {seen:?}, caller {caller:?}"
        );
    }
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
    for (k, pts) in &run.knn {
        let mut out = KnnBatchResults::new();
        oracle.knn_collect(pts, *k, &mut out);
        oracle_knn.push(
            (0..pts.len())
                .map(|p| out.query_results(p).to_vec())
                .collect::<Vec<_>>(),
        );
    }

    for threads in [1usize, 2, 4] {
        parallel::set_num_threads(threads);
        let mut backend = sharded_backend(4);
        assert_eq!(backend.pool_workers(), threads);
        let mut out = QueryRunResults::default();
        let report = backend.query_run(&run, false, &mut out);
        assert_eq!(report.panics, 0);
        assert!(matches!(report.range, Some(SubBatchOutcome::Ran(_))));
        for g in 0..run.knn.len() {
            assert!(matches!(report.knn[g], SubBatchOutcome::Ran(_)));
        }
        for (q, expected) in oracle_range.iter().enumerate() {
            assert_eq!(
                out.range.query_results(q),
                &expected[..],
                "range query {q} diverged at {threads} threads"
            );
        }
        for (g, (k, _)) in run.knn.iter().enumerate() {
            for (p, expected) in oracle_knn[g].iter().enumerate() {
                assert_eq!(
                    out.knn[g].query_results(p),
                    &expected[..],
                    "kNN k={k} probe {p} diverged at {threads} threads"
                );
            }
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
