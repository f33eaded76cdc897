//! Bursty open-loop clients against the concurrent query service.
//!
//! Simulates the roadmap's target deployment in miniature: several client
//! threads generate *open-loop* traffic (requests arrive in bursts on a
//! schedule, whether or not earlier responses came back) against one
//! shared spatial dataset, first through a one-shard grid backend,
//! then through a 2-shard writable grid backend with per-shard worker
//! threads where one producer doubles as the *simulation*, interleaving
//! `Request::StepDelta` write barriers with everyone else's queries — watch
//! the `writes:` line of the stats. Clients submit nonblocking, so a
//! saturated intake queue sheds load instead of blocking the arrival
//! process — watch the `rejected` counter.
//!
//! The final stanza serves the same workload over TCP: a `NetServer`
//! wraps the service on a loopback socket and the producers become real
//! `NetClient` connections — one tenant per producer — pipelining frames
//! through deficit-round-robin admission. The per-tenant lines
//! of the closing stats show each connection's admitted/shed/completed
//! split and latency quantiles.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example service_frontend
//! ```

use simspatial::net::wire::ServerMsg;
use simspatial::prelude::*;
use std::time::{Duration, Instant};

const PRODUCERS: u32 = 4;
const BURSTS: u32 = 30;
const BURST_SIZE: u32 = 16;
const BURST_GAP: Duration = Duration::from_millis(1);

fn mix(h: u32) -> u32 {
    let mut h = h.wrapping_mul(0x9E3779B9) ^ 0x5151_7EA3;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^ (h >> 13)
}

/// One deterministic pseudo-random request: range boxes, count probes and
/// kNN probes (varying k) in a 2:1:1 mix.
fn request(universe: &Aabb, h: u32) -> Request {
    let e = universe.extent();
    let f = |sh: u32, span: f32| (mix(h ^ sh) % 1000) as f32 / 1000.0 * span;
    let corner = Point3::new(
        universe.min.x + f(1, e.x),
        universe.min.y + f(2, e.y),
        universe.min.z + f(3, e.z),
    );
    match h % 4 {
        0 | 1 => Request::Range(vec![Aabb::new(
            corner,
            Point3::new(
                corner.x + e.x * 0.05,
                corner.y + e.y * 0.05,
                corner.z + e.z * 0.05,
            ),
        )]),
        2 => Request::RangeCount(vec![Aabb::new(
            corner,
            Point3::new(
                corner.x + e.x * 0.1,
                corner.y + e.y * 0.1,
                corner.z + e.z * 0.1,
            ),
        )]),
        _ => Request::Knn(vec![(corner, 2 + (h % 7) as usize)]),
    }
}

/// A small update burst: producer 0's simulation tick — a handful of
/// elements displaced slightly along x (the massive-yet-minimal profile),
/// shipped as one [`Request::StepDelta`] carrying just the 8 movers, so
/// the wire and apply cost scale with the moved count, not the dataset
/// size. Movers come from a small active set whose
/// positions are stable per id, so after each member's first move (a
/// one-time teleport to its hash position, which may migrate shards and
/// rebuild) later ticks jitter in place — the resident-lane profile an
/// incremental backend applies without rebuilding.
const ACTIVE_SET: u32 = 64;

fn tick_request(universe: &Aabb, n_elements: u32, h: u32) -> Request {
    let step = universe.extent().x * 0.01;
    let moves = (0..8u32)
        .map(|j| {
            let id = mix(h ^ j) % n_elements.min(ACTIVE_SET);
            let d = (mix(h ^ (j << 8)) % 3) as f32 * step - step;
            let lo = Point3::new(
                universe.min.x + (mix(id) % 900) as f32 / 900.0 * universe.extent().x + d,
                universe.min.y + (mix(id ^ 7) % 900) as f32 / 900.0 * universe.extent().y,
                universe.min.z + (mix(id ^ 13) % 900) as f32 / 900.0 * universe.extent().z,
            );
            (
                id,
                Aabb::new(lo, Point3::new(lo.x + 0.8, lo.y + 0.8, lo.z + 0.8)),
            )
        })
        .collect();
    Request::StepDelta(moves)
}

/// Drives the open-loop workload against `service` and reports its stats.
/// When the backend is writable, producer 0 interleaves update bursts.
fn drive(name: &str, service: SpatialService, universe: Aabb, n_elements: u32) {
    let start = Instant::now();
    let writable = service.handle().capabilities().updates;
    let nonblocking = SubmitOptions {
        nonblocking: true,
        ..SubmitOptions::default()
    };
    std::thread::scope(|scope| {
        for tid in 0..PRODUCERS {
            let handle = service.handle();
            scope.spawn(move || {
                let mut dropped = 0u32;
                for burst in 0..BURSTS {
                    for i in 0..BURST_SIZE {
                        let h = mix(tid << 20 | burst << 8 | i);
                        let req = if writable && tid == 0 && i % 4 == 0 {
                            tick_request(&universe, n_elements, h)
                        } else {
                            request(&universe, h)
                        };
                        // Open loop: fire and forget — completion latency is
                        // recorded by the scheduler even if the ticket is
                        // dropped; a full queue sheds the request.
                        match handle.submit_with(req, nonblocking) {
                            Ok(_ticket) => {}
                            Err(SubmitError::Full { .. }) => dropped += 1,
                            Err(e) => panic!("service vanished: {e}"),
                        }
                    }
                    std::thread::sleep(BURST_GAP);
                }
                dropped
            });
        }
    });
    let stats = service.shutdown();
    let wall = start.elapsed().as_secs_f64();
    println!("== {name} ==");
    println!("{}", stats.summary());
    println!(
        "throughput: {:.0} completed requests/s over {:.2}s wall\n",
        stats.completed as f64 / wall,
        wall
    );
}

/// Drives the same workload over loopback TCP: each producer is a real
/// `NetClient` connection with its own tenant name, pipelining up to 8
/// frames before reaping replies. Server `Retry` frames (per-tenant
/// staging overflow) count as drops, mirroring the nonblocking shedding
/// in the in-process stanzas.
fn drive_tcp(name: &str, service: SpatialService, universe: Aabb, n_elements: u32) {
    let tenants = (0..PRODUCERS)
        .map(|tid| TenantSpec::new(format!("producer{tid}"), if tid == 0 { 2 } else { 1 }))
        .collect();
    let server = NetServer::bind(
        service,
        "127.0.0.1:0",
        NetConfig::default().with_tenants(tenants),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..PRODUCERS {
            scope.spawn(move || {
                let tenant = format!("producer{tid}");
                let mut conn = NetClient::connect(addr, &tenant).expect("connect");
                let writable = tid == 0;
                let mut outstanding = 0u32;
                let mut dropped = 0u32;
                for burst in 0..BURSTS {
                    for i in 0..BURST_SIZE {
                        let h = mix(tid << 20 | burst << 8 | i);
                        let req = if writable && i % 4 == 0 {
                            tick_request(&universe, n_elements, h)
                        } else {
                            request(&universe, h)
                        };
                        if outstanding >= 8 {
                            // Push the buffered frames out before blocking
                            // on a reply, or the window deadlocks.
                            conn.flush().expect("flush");
                        }
                        while outstanding >= 8 {
                            if let ServerMsg::Retry { .. } = conn.recv_msg().expect("reply") {
                                dropped += 1;
                            }
                            outstanding -= 1;
                        }
                        conn.enqueue(&req).expect("enqueue");
                        outstanding += 1;
                    }
                    conn.flush().expect("flush");
                    std::thread::sleep(BURST_GAP);
                }
                conn.flush().expect("flush");
                while outstanding > 0 {
                    if let ServerMsg::Retry { .. } = conn.recv_msg().expect("reply") {
                        dropped += 1;
                    }
                    outstanding -= 1;
                }
                dropped
            });
        }
    });
    let stats = server.shutdown();
    let wall = start.elapsed().as_secs_f64();
    println!("== {name} ==");
    println!("{}", stats.summary());
    println!(
        "throughput: {:.0} completed requests/s over {:.2}s wall\n",
        stats.completed as f64 / wall,
        wall
    );
}

fn main() {
    let dataset = NeuronDatasetBuilder::new()
        .neurons(60)
        .segments_per_neuron(120)
        .seed(0xF00D)
        .build();
    let universe = dataset.universe();
    println!(
        "dataset: {} elements, universe {:?} → {:?}",
        dataset.len(),
        universe.min,
        universe.max
    );
    println!(
        "workload: {PRODUCERS} open-loop producers × {BURSTS} bursts × {BURST_SIZE} requests, {BURST_GAP:?} gap\n",
    );

    // 1. One-shard backend: the dispatcher thread runs every lane itself
    // (read-only — writes would be rejected at admission).
    let grid = ShardedBackend::spawn(ShardedEngine::build(dataset.elements(), 1, |d| {
        UniformGrid::build(d, GridConfig::auto(d))
    }));
    drive(
        "UniformGrid · one-shard backend (read-only)",
        SpatialService::spawn(grid, ServiceConfig::default()),
        universe,
        dataset.len() as u32,
    );

    // 2. Region-sharded writable backend: one worker thread per shard,
    // lanes over channels, deduplicating merge — and producer 0 acts as
    // the simulation, pushing update barriers through the same queue.
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let sharded = ShardedBackend::spawn(
        ShardedEngine::build(dataset.elements(), 2, build).with_rebuild(build),
    );
    drive(
        "UniformGrid · 2-shard writable backend (per-shard workers + updates)",
        SpatialService::spawn(sharded, ServiceConfig::default()),
        universe,
        dataset.len() as u32,
    );

    // 3. Incremental write mode: each shard holds a grid-migration
    // strategy, and producer 0's delta ticks touch only the dirty cells
    // instead of rebuilding the shard — compare the `write amp:` line
    // (rebuilds avoided, structural touches ≪ elements) with stanza 2.
    let incremental = ShardedBackend::spawn(sharded_strategy_engine(
        dataset.elements(),
        2,
        UpdateStrategyKind::GridMigrate,
    ));
    drive(
        "GridMigrate · 2-shard incremental backend (delta ticks, in-place writes)",
        SpatialService::spawn(incremental, ServiceConfig::default()),
        universe,
        dataset.len() as u32,
    );

    // 4. The same writable 2-shard backend served over loopback TCP: real
    // sockets, length-prefixed frames, per-tenant DRR admission. Compare
    // its throughput line to stanza 2 — the gap is the wire stack's cost.
    let sharded = ShardedBackend::spawn(
        ShardedEngine::build(dataset.elements(), 2, build).with_rebuild(build),
    );
    drive_tcp(
        "UniformGrid · 2-shard writable backend over TCP (4 tenant connections)",
        SpatialService::spawn(sharded, ServiceConfig::default()),
        universe,
        dataset.len() as u32,
    );
}
