//! The layer ladder: one 1024-box batch and one 256-probe batch on the
//! benchmark's dataset, timed at every rung of the stack by calling that
//! rung's public entry point.
//!
//! ```text
//!   geom     SoaAabbs::intersect_mask / min_dist2_into over all elements
//!   index    UniformGrid::range_into / knn_into, caller scratch + CountSink
//!            (R-Tree beside it)
//!   engine   QueryEngine::range_collect / knn_collect
//!   sharded  ShardedEngine, 1 and 4 shards
//!   service  SpatialService over EngineBackend (inline), then
//!            ShardedBackend (pool)
//!   net      NetClient over loopback to that service
//! ```
//!
//! Each rung's `tax_frac` is its cost over the rung below, minus one. Every
//! timing is the fast quartile of [`REPS`] repetitions of the whole batch.

use crate::data::{Inputs, KNN_K, SHARDS};
use crate::oracle::Tally;
use crate::stats::quantile;
use crate::workloads::{grid, metric, Metric};
use simspatial_geom::{Aabb, Element, ElementId, QueryScratch, SoaAabbs};
use simspatial_index::{
    BatchResults, CountSink, KnnBatchResults, KnnIndex, KnnSink, QueryEngine, RTree, RTreeConfig,
    ShardedEngine, SpatialIndex,
};
use simspatial_net::{wire::ServerMsg, NetClient, NetConfig, NetServer};
use simspatial_service::{
    EngineBackend, Request, ServiceConfig, ServiceHandle, ShardedBackend, SpatialService,
};
use std::hint::black_box;
use std::time::Instant;

const BOXES: usize = 1024;
const PROBES: usize = 256;
/// Queries the `geom` rung scans all elements with (it is priced per
/// element, so it needs far fewer than the index rungs).
const SCANS: usize = 64;
/// Requests the batch is cut into on the service and net rungs — one
/// window's worth, all outstanding at once.
const REQUESTS: usize = 16;
const REPS: usize = 7;
const BUILD_REPS: usize = 3;

/// Fast-quartile seconds of `reps` runs of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    quantile(&times, 0.25)
}

/// Fast-quartile seconds of `reps` builds, keeping the last product.
fn timed_build<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), quantile(&times, 0.25))
}

#[derive(Default)]
struct CountKnn(u64);

impl KnnSink for CountKnn {
    fn push(&mut self, _id: ElementId, _dist: f32) {
        self.0 += 1;
    }
}

fn us_per(seconds: f64, items: usize) -> f64 {
    seconds * 1e6 / items as f64
}

fn range_requests(boxes: &[Aabb]) -> Vec<Request> {
    boxes
        .chunks(boxes.len() / REQUESTS)
        .map(|c| Request::Range(c.to_vec()))
        .collect()
}

/// Submits every request, then redeems every reply; returns total results.
fn serve_in_process(handle: &ServiceHandle, requests: &[Request]) -> u64 {
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| handle.submit(r.clone()).expect("ladder service is up"))
        .collect();
    tickets
        .into_iter()
        .map(|t| {
            let lists = t
                .recv()
                .expect("ladder read")
                .into_range()
                .expect("range reply");
            lists.iter().map(|l| l.len() as u64).sum::<u64>()
        })
        .sum()
}

/// Enqueues every request, flushes once, then receives every reply.
fn serve_over_tcp(client: &mut NetClient, requests: &[Request]) -> u64 {
    for r in requests {
        client.enqueue(r).expect("ladder enqueue");
    }
    client.flush().expect("ladder flush");
    (0..requests.len())
        .map(|_| match client.recv_msg().expect("ladder recv") {
            ServerMsg::Reply { response, .. } => response
                .into_range()
                .expect("range reply")
                .iter()
                .map(|l| l.len() as u64)
                .sum::<u64>(),
            other => panic!("ladder request not served: {other:?}"),
        })
        .sum()
}

/// Runs the ladder. Every rung must return the same number of results for
/// the batch; each rung's agreement is recorded in `tally`.
pub fn run(inputs: &mut Inputs, tally: &mut Tally) -> Vec<Metric> {
    let boxes = inputs.boxes(BOXES);
    let probes = inputs.probes(PROBES);
    let elements: &[Element] = &inputs.elements;
    let n = elements.len();
    let mut out = Vec::new();

    // ---- geom: the SoA kernels over every element -----------------------
    let entries: Vec<(Aabb, ElementId)> = elements.iter().map(|e| (e.aabb(), e.id)).collect();
    let soa = SoaAabbs::from_entries(&entries);
    drop(entries);
    let mut mask = Vec::new();
    let scan_s = timed(REPS, || {
        for q in &boxes[..SCANS] {
            soa.intersect_mask(q, &mut mask);
            black_box(&mask);
        }
    });
    let mut dists = Vec::new();
    let mindist_s = timed(REPS, || {
        for p in &probes[..SCANS] {
            soa.min_dist2_into(p, &mut dists);
            black_box(&dists);
        }
    });
    drop(soa);
    out.push(metric(
        "geom.scan_ns_per_elem",
        scan_s * 1e9 / (SCANS * n) as f64,
        "ns",
    ));
    out.push(metric(
        "geom.mindist_ns_per_elem",
        mindist_s * 1e9 / (SCANS * n) as f64,
        "ns",
    ));

    // ---- index: one query at a time, caller scratch, counting sinks -----
    let (index, build_s) = timed_build(BUILD_REPS, || grid(elements));
    out.push(metric("index.build_s", build_s, "s"));
    let mut scratch = QueryScratch::default();
    let mut count = CountSink::new();
    let index_range_s = timed(REPS, || {
        count.reset();
        for q in &boxes {
            index.range_into(elements, q, &mut scratch, &mut count);
        }
    });
    let results = count.total;
    let mut neighbours = CountKnn::default();
    let index_knn_s = timed(REPS, || {
        neighbours.0 = 0;
        for p in &probes {
            index.knn_into(elements, p, KNN_K, &mut scratch, &mut neighbours);
        }
    });
    tally.record(neighbours.0 == (PROBES * KNN_K) as u64);
    out.push(metric(
        "index.range_us_per_query",
        us_per(index_range_s, BOXES),
        "us",
    ));
    out.push(metric(
        "index.knn_us_per_probe",
        us_per(index_knn_s, PROBES),
        "us",
    ));

    let (rtree, rtree_build_s) = timed_build(BUILD_REPS, || {
        RTree::bulk_load(elements, RTreeConfig::default())
    });
    let rtree_range_s = timed(REPS, || {
        count.reset();
        for q in &boxes {
            rtree.range_into(elements, q, &mut scratch, &mut count);
        }
    });
    tally.record(count.total == results);
    drop(rtree);
    out.push(metric("index.rtree_build_s", rtree_build_s, "s"));
    out.push(metric(
        "index.rtree_range_us_per_query",
        us_per(rtree_range_s, BOXES),
        "us",
    ));

    // ---- engine: the batched plan, results collected ---------------------
    let mut engine = QueryEngine::new();
    let mut ranges = BatchResults::new();
    let mut knns = KnnBatchResults::new();
    let mut batch = Default::default();
    let engine_range_s = timed(REPS, || {
        batch = engine.range_collect(&index, elements, &boxes, &mut ranges);
    });
    tally.record(batch.results == results);
    // Wasted work: intersection tests paid per result returned.
    out.push(metric(
        "index.tests_per_result",
        batch.counts.total_tests() as f64 / results.max(1) as f64,
        "ratio",
    ));
    let engine_knn_s = timed(REPS, || {
        engine.knn_collect(&index, elements, &probes, KNN_K, &mut knns);
    });
    out.push(metric(
        "engine.range_us_per_query",
        us_per(engine_range_s, BOXES),
        "us",
    ));
    out.push(metric(
        "engine.knn_us_per_probe",
        us_per(engine_knn_s, PROBES),
        "us",
    ));
    out.push(metric(
        "engine.tax_frac",
        engine_range_s / index_range_s - 1.0,
        "ratio",
    ));

    // ---- sharded: 1 shard, then 4 ----------------------------------------
    let mut one = ShardedEngine::build(elements, 1, grid);
    let s1_range_s = timed(REPS, || {
        batch = one.range_collect(&boxes, &mut ranges);
    });
    tally.record(batch.results == results);
    drop(one);
    let (mut four, sharded_build_s) =
        timed_build(BUILD_REPS, || ShardedEngine::build(elements, SHARDS, grid));
    let s4_range_s = timed(REPS, || {
        batch = four.range_collect(&boxes, &mut ranges);
    });
    tally.record(batch.results == results);
    let s4_knn_s = timed(REPS, || {
        four.knn_collect(&probes, KNN_K, &mut knns);
    });
    let replicated: usize = four.shard_sizes().iter().sum();
    out.push(metric(
        "sharded.s1_range_us_per_query",
        us_per(s1_range_s, BOXES),
        "us",
    ));
    out.push(metric(
        "sharded.s4_range_us_per_query",
        us_per(s4_range_s, BOXES),
        "us",
    ));
    out.push(metric(
        "sharded.s4_knn_us_per_probe",
        us_per(s4_knn_s, PROBES),
        "us",
    ));
    out.push(metric(
        "sharded.tax_frac",
        s4_range_s / engine_range_s - 1.0,
        "ratio",
    ));
    out.push(metric(
        "sharded.replication_frac",
        replicated as f64 / n as f64 - 1.0,
        "ratio",
    ));
    out.push(metric("sharded.build_s", sharded_build_s, "s"));

    // ---- service: inline on the dispatcher, then scattered to the pool ---
    let requests = range_requests(&boxes);
    let inline = SpatialService::spawn(
        EngineBackend::new(elements.to_vec(), index),
        ServiceConfig::default(),
    );
    let handle = inline.handle();
    let mut served = 0;
    let inline_s = timed(REPS, || served = serve_in_process(&handle, &requests));
    tally.record(served == results);
    inline.shutdown();

    let pooled = SpatialService::spawn(ShardedBackend::spawn(four), ServiceConfig::default());
    let handle = pooled.handle();
    let pool_s = timed(REPS, || served = serve_in_process(&handle, &requests));
    tally.record(served == results);
    out.push(metric(
        "service.inline_range_us_per_query",
        us_per(inline_s, BOXES),
        "us",
    ));
    out.push(metric(
        "service.pool_range_us_per_query",
        us_per(pool_s, BOXES),
        "us",
    ));
    out.push(metric(
        "service.tax_frac",
        pool_s / s4_range_s - 1.0,
        "ratio",
    ));

    // ---- net: the same service behind the TCP front end -------------------
    let server =
        NetServer::bind(pooled, "127.0.0.1:0", NetConfig::default()).expect("bind a loopback port");
    let mut client =
        NetClient::connect(server.local_addr(), "ladder").expect("connect to the ladder server");
    let net_s = timed(REPS, || served = serve_over_tcp(&mut client, &requests));
    tally.record(served == results);
    drop(client);
    server.shutdown();
    out.push(metric("net.range_us_per_query", us_per(net_s, BOXES), "us"));
    out.push(metric("net.tax_frac", net_s / pool_s - 1.0, "ratio"));

    out
}
