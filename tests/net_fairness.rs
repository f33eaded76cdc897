//! Multi-tenant fairness under overload: a hot tenant flooding the
//! server open-loop must not starve a low-weight trickle tenant.
//!
//! The deterministic deficit-round-robin ratio (9:1 weights → 9:1
//! admissions) is pinned by unit tests inside `simspatial-net`; this
//! test proves the end-to-end property those ratios exist for: with the
//! backend deliberately slowed and the hot tenant provably overloading
//! its queues (sheds observed), every one of the trickle tenant's
//! requests — ~5% of demand at 10% weight — is admitted, completes
//! correctly, and is never shed. A starvation regression either hangs
//! this test (trickle call never returns) or trips the shed/latency
//! assertions. The hot connections never read: should their socket
//! buffers fill, their writers block and stop redeeming, the hot
//! tenant's in-flight cap bounds what it holds server-side, and the
//! trickle tenant's own reader and writer keep admitting its requests.

use simspatial::prelude::*;
use simspatial_service::{QueryRun, QueryRunReport, QueryRunResults, ServiceBackend};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A backend that takes a fixed nap per query batch — slow enough that
/// an open-loop producer saturates admission, deterministic enough for
/// a test. Read-only.
struct SlowBackend<B: ServiceBackend> {
    inner: B,
    nap: Duration,
}

impl<B: ServiceBackend> ServiceBackend for SlowBackend<B> {
    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn query_run(
        &mut self,
        run: &QueryRun,
        snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        std::thread::sleep(self.nap);
        self.inner.query_run(run, snapshot, out)
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

fn probe() -> Request {
    Request::RangeCount(vec![Aabb::new(
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(30.0, 30.0, 30.0),
    )])
}

#[test]
fn hot_tenant_cannot_starve_trickle_tenant() {
    let data: Vec<Element> = (0..300)
        .map(|i| {
            let x = (i % 60) as f32;
            Element::new(
                i,
                Shape::Sphere(Sphere::new(Point3::new(x, x * 0.3, 2.0), 0.5)),
            )
        })
        .collect();
    let backend = SlowBackend {
        inner: EngineBackend::build(data, |d| UniformGrid::build(d, GridConfig::auto(d))),
        nap: Duration::from_millis(1),
    };
    // Small intake queue + no coalescing: each request costs a full nap,
    // so backlog forms in the per-tenant staging queues where DRR
    // admission and the in-flight caps arbitrate.
    let service = SpatialService::spawn(
        backend,
        ServiceConfig::default().no_coalesce().with_queue_cap(8),
    );
    let cfg = NetConfig::default()
        .with_tenants(vec![
            TenantSpec::new("hot", 9).with_caps(6, 32),
            TenantSpec::new("trickle", 1).with_caps(2, 8),
        ])
        .reject_unknown_tenants();
    let server = NetServer::bind(service, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    const TRICKLE_CALLS: u32 = 40;
    let stop = AtomicBool::new(false);
    let mut trickle_latencies: Vec<Duration> = Vec::new();

    std::thread::scope(|scope| {
        // Two hot connections flood open-loop: fire pipelined requests as
        // fast as the socket accepts, never waiting for replies, until
        // the trickle tenant is done.
        for _ in 0..2 {
            let stop = &stop;
            scope.spawn(move || {
                let mut conn = NetClient::connect(addr, "hot").unwrap();
                let mut fired = 0u32;
                while !stop.load(Ordering::Acquire) {
                    for _ in 0..16 {
                        conn.enqueue(&probe()).unwrap();
                        fired += 1;
                    }
                    conn.flush().unwrap();
                    // Never reads: replies and Retry frames pile up in
                    // the socket buffers — the worst-behaved client the
                    // protocol allows.
                    std::thread::sleep(Duration::from_millis(2));
                }
                // Closing mid-backlog is fine: staged requests resolve
                // server-side and their frames are dropped.
                fired
            });
        }

        // The trickle tenant: sequential, one request at a time — about
        // 5% of the hot tenants' demand.
        let trickle_latencies = &mut trickle_latencies;
        let stop = &stop;
        scope.spawn(move || {
            let mut conn = NetClient::connect(addr, "trickle").unwrap();
            for i in 0..TRICKLE_CALLS {
                let start = std::time::Instant::now();
                match conn.call(&probe()).unwrap() {
                    CallOutcome::Reply { response, .. } => {
                        let counts = response.into_range_counts().expect("count reply");
                        assert!(counts[0] > 0, "call {i}: wrong answer under contention");
                    }
                    other => panic!("trickle call {i} not served: {other:?}"),
                }
                trickle_latencies.push(start.elapsed());
            }
            stop.store(true, Ordering::Release);
        });
    });

    let stats = server.shutdown();
    let tenant = |name: &str| {
        stats
            .tenants
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("tenant {name} missing from stats"))
            .clone()
    };
    let hot = tenant("hot");
    let trickle = tenant("trickle");

    // The hot tenant really overloaded its lane: its staging queue
    // overflowed into protocol-level sheds. Without overload this test
    // proves nothing, so it is an assertion, not a maybe.
    assert!(
        hot.shed > 0,
        "hot tenant was never shed — not an overload scenario (admitted {})",
        hot.admitted
    );
    assert!(
        hot.admitted > u64::from(TRICKLE_CALLS),
        "hot load dwarfs trickle"
    );

    // The trickle tenant rode through untouched: every call admitted,
    // completed, never shed.
    assert_eq!(trickle.shed, 0, "trickle tenant was shed under overload");
    assert_eq!(trickle.admitted, u64::from(TRICKLE_CALLS));
    assert_eq!(trickle.completed, u64::from(TRICKLE_CALLS));
    assert_eq!(trickle.failed, 0);

    // And not merely eventually: its median round trip stays within a
    // small multiple of the work it queues behind at its weighted share
    // (service queue ≤ 8 naps + DRR slack; 500ms is ~20x that ceiling,
    // loose enough for CI noise, tight enough to fail a starved run
    // where calls sit behind the hot backlog for seconds).
    let mut sorted = trickle_latencies.clone();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    assert!(
        median < Duration::from_millis(500),
        "trickle median latency {median:?} — starved behind the hot tenant"
    );
}
