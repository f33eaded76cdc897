//! Deterministic chaos coverage for the fault-tolerant service.
//!
//! Every test drives the service **sequentially** (submit one request,
//! redeem its ticket, then submit the next) so each request maps to
//! exactly one backend call and a [`FaultPlan`]'s op indices line up with
//! request indices — the same plan and the same request stream reproduce
//! the exact same failures on every run. The properties checked:
//!
//! * **No hangs**: every admitted ticket resolves (all redemptions go
//!   through `recv_deadline` with a generous bound, so a lost completion
//!   fails the test instead of wedging it).
//! * **Differential**: requests untouched by dispatcher-level faults
//!   return responses *byte-identical* to a serial oracle over the same
//!   surviving write stream; faulted requests fail **typed**
//!   ([`RecvError::WorkerFailed`]) and their writes are provably not
//!   applied (the oracle skips them and later reads still agree).
//! * **Supervision**: a panicked shard worker is quarantined and
//!   restarted from its own element clone, the torn write lane replayed
//!   on it exactly once (telemetry counters match the plan; a shard's job
//!   clock spans its restarts); a rebuild that itself panics is retried
//!   within the budget; with the restart budget exhausted, or a clone
//!   that disagrees with the planner's route table, the shard dies, after
//!   which range/count degrade to partial coverage
//!   ([`Reply::shards_skipped`]) and kNN fails typed.
//! * **Deadlines & admission**: expiry at admission and at completion, a
//!   nonblocking deadlined snapshot read bounced `Full` then shed once
//!   admitted, and all four ticket-redemption flavours against a stalled
//!   backend.
//! * **Poisoning**: a write panic with no recovery path fails fast — every
//!   queued and subsequent request completes typed, nothing hangs.

mod common;

use common::{
    expected, mix, rebuild_only, rebuild_strategy_engine, soup, RebuildOracle, SerialOracle,
    ShardedOracle, StrategyOracle,
};
use simspatial::prelude::*;
use simspatial_geom::QueryScratch;
use simspatial_service::{
    QueryRun, QueryRunReport, QueryRunResults, RecvError, ServiceBackend, UpdateReport,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// Installs a panic hook that silences the *injected* panics (payloads
/// prefixed `"chaos:"`) so chaos runs don't spray expected backtraces over
/// the test output. Real panics still print through the default hook.
fn quiet_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<&str>()
                .map(|s| s.contains("chaos:"))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|s| s.contains("chaos:"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// A box covering the whole soup — routes to every shard of a region
/// decomposition, so each full-coverage request costs each live shard
/// exactly one worker job (what makes per-shard job sequences predictable).
fn full_cover() -> Aabb {
    Aabb::new(
        Point3::new(-10.0, -10.0, -10.0),
        Point3::new(120.0, 120.0, 120.0),
    )
}

/// A full simulation tick: every element gets a fresh envelope derived from
/// `h` — the bulk write that makes every shard's update lane non-empty and
/// forces cross-shard migrations.
fn step_envelopes(data_len: u32, h: u32) -> Vec<(ElementId, Aabb)> {
    (0..data_len)
        .map(|id| {
            let g = mix(id ^ h);
            let x = (g % 900) as f32 / 10.0;
            let y = ((g >> 8) % 900) as f32 / 10.0;
            let z = ((g >> 16) % 900) as f32 / 10.0;
            (
                id,
                Aabb::new(Point3::new(x, y, z), Point3::new(x + 1.0, y + 1.0, z + 1.0)),
            )
        })
        .collect()
}

/// Deterministic single-op request stream: driven without coalescing,
/// every request is exactly **one** backend call, so request index `i` is
/// dispatcher op index `i` and a [`FaultPlan`] keyed on op indices is keyed
/// on request indices.
fn chaos_requests(count: u32, data_len: u32, writable: bool, seed: u32) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let h = mix(i.wrapping_mul(31).wrapping_add(seed));
            let cx = (h % 90) as f32;
            let cy = ((h >> 8) % 90) as f32;
            let cz = ((h >> 16) % 90) as f32;
            let family = if writable { h % 6 } else { h % 3 };
            match family {
                0 | 5 => Request::Range(
                    (0..(h % 3 + 1))
                        .map(|q| {
                            let o = q as f32 * 5.0;
                            Aabb::new(
                                Point3::new(cx - o, cy, cz),
                                Point3::new(cx + 8.0, cy + 10.0, cz + 7.0 + o),
                            )
                        })
                        .collect(),
                ),
                1 => Request::RangeCount(vec![Aabb::new(
                    Point3::new(cx, cy, cz),
                    Point3::new(cx + 18.0, cy + 18.0, cz + 18.0),
                )]),
                2 => {
                    let k = (h >> 20) as usize % 9;
                    Request::Knn(
                        (0..(h % 3 + 1))
                            .map(|q| (Point3::new(cx + q as f32, cy, cz), k))
                            .collect(),
                    )
                }
                3 => Request::StepDelta(
                    (0..(h % 4 + 1))
                        .map(|q| {
                            let id = h.wrapping_add(q * 77) % data_len;
                            let bx = ((h >> (q % 8 + 3)) % 90) as f32;
                            (
                                id,
                                Aabb::new(
                                    Point3::new(bx, cy, cz),
                                    Point3::new(bx + 1.5, cy + 1.5, cz + 1.5),
                                ),
                            )
                        })
                        .collect(),
                ),
                _ => Request::StepDelta(step_envelopes(data_len, h)),
            }
        })
        .collect()
}

/// Redeems a ticket with a generous bound so a lost completion fails loudly
/// instead of wedging the test binary — the no-hang assertion every chaos
/// test makes on every single request.
fn recv_bounded(ticket: &Ticket, label: &str, op: usize) -> Result<Response, RecvError> {
    ticket
        .recv_deadline(Duration::from_secs(30))
        .unwrap_or_else(|| panic!("{label}: ticket for op {op} hung"))
}

/// Drives `requests` sequentially through `service` under `plan` and checks
/// every outcome against the serial oracle: requests whose dispatcher op is
/// scheduled to panic or lose its response must fail typed (and their
/// writes stay un-applied — the oracle skips them, so every later read
/// cross-checks that too); everything else must match the oracle
/// byte-for-byte. Returns the drained service stats.
fn drive_differential(
    service: SpatialService,
    oracle: &mut dyn SerialOracle,
    plan: &FaultPlan,
    requests: &[Request],
    label: &str,
) -> ServiceStats {
    let handle = service.handle();
    for (op, req) in requests.iter().enumerate() {
        let ticket = handle
            .submit(req.clone())
            .unwrap_or_else(|e| panic!("{label}: submit of op {op} rejected: {e:?}"));
        let got = recv_bounded(&ticket, label, op);
        match plan.dispatcher_fault(op as u64) {
            Some(FaultKind::Panic) | Some(FaultKind::DropResponse) => match got {
                Err(RecvError::WorkerFailed { .. }) => {}
                other => panic!("{label}: op {op} should fail typed, got {other:?}"),
            },
            _ => {
                let want = expected(oracle, req);
                match got {
                    Ok(resp) => {
                        assert_eq!(resp, want, "{label}: op {op} diverged from serial oracle")
                    }
                    Err(e) => panic!("{label}: op {op} unexpectedly failed: {e}"),
                }
            }
        }
    }
    service.shutdown()
}

/// The fixed dispatcher-fault plan: panic mid-query, lost write, panic
/// mid-write, slow call, lost query response — the service keeps serving,
/// failed requests complete typed, their writes are not applied, and every
/// surviving response matches the serial oracle.
fn dispatcher_faults_fail_typed_and_survivors_match(
    backend: impl ServiceBackend,
    oracle: &mut dyn SerialOracle,
    label: &str,
) {
    quiet_panics();
    let t1 = Aabb::new(Point3::new(2.0, 2.0, 2.0), Point3::new(3.5, 3.5, 3.5));
    let t4 = Aabb::new(Point3::new(95.0, 95.0, 95.0), Point3::new(96.5, 96.5, 96.5));
    let requests = vec![
        Request::Range(vec![full_cover(), t1]),     // op 0: panics
        Request::StepDelta(vec![(3, t1), (5, t1)]), // op 1: response lost
        Request::Range(vec![t1]),                   // op 2: must NOT see op 1
        Request::Knn(vec![(Point3::new(40.0, 40.0, 40.0), 4)]), // op 3: delayed
        Request::StepDelta(vec![(7, t1)]),          // op 4: panics
        Request::Range(vec![t1]),                   // op 5: response lost
        Request::RangeCount(vec![full_cover()]),    // op 6
        Request::StepDelta(vec![(9, t4)]),          // op 7: applies
        Request::Range(vec![t4]),                   // op 8: must see op 7
    ];
    let plan = FaultPlan::new()
        .panic_at(0)
        .drop_at(1)
        .delay_at(3, Duration::from_millis(2))
        .panic_at(4)
        .drop_at(5);
    let backend = ChaosBackend::new(backend, plan.clone());
    let stats = drive_differential(
        SpatialService::spawn(backend, ServiceConfig::default().no_coalesce()),
        oracle,
        &plan,
        &requests,
        label,
    );
    assert_eq!(stats.panics_caught, 2, "both injected panics were caught");
    assert_eq!(stats.failed_requests, 4, "ops 0, 1, 4, 5 failed typed");
    assert_eq!(stats.completed, requests.len() as u64, "no ticket was lost");
    assert_eq!(stats.deadline_expired, 0);
    assert_eq!(stats.shards_dead, 0);
}

/// One backend call is one fault op, whatever it carries: a kNN request
/// with three distinct `k`s spends one op, not one per `k`, so op indices
/// stay request indices. The panic at op 1 and the lost response at op 2
/// fail exactly requests 1 and 2; requests 0 and 3 match the oracle.
#[test]
fn one_backend_call_is_one_fault_op_whatever_its_ks() {
    quiet_panics();
    let data = soup(1500, 0x0B0E);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let at = |x: f32, k: usize| (Point3::new(x, 40.0, 40.0), k);
    let requests = vec![
        Request::Knn(vec![at(10.0, 1), at(40.0, 5), at(70.0, 9)]), // op 0
        Request::Range(vec![full_cover()]),                        // op 1: panics
        Request::Knn(vec![at(25.0, 2), at(55.0, 7)]),              // op 2: response lost
        Request::RangeCount(vec![full_cover()]),                   // op 3
    ];
    let plan = FaultPlan::new().panic_at(1).drop_at(2);
    let check = |backend: ShardedBackend, oracle: &mut dyn SerialOracle, label: &str| {
        let backend = ChaosBackend::new(backend, plan.clone());
        let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
        let stats = drive_differential(service, oracle, &plan, &requests, label);
        assert_eq!(stats.panics_caught, 1, "{label}: the injected panic");
        assert_eq!(stats.failed_requests, 2, "{label}: requests 1 and 2");
        assert_eq!(stats.completed, requests.len() as u64, "{label}");
    };
    check(
        ShardedBackend::spawn(ShardedEngine::build(&data, 1, build)),
        &mut RebuildOracle::new(data.clone(), build),
        "1 shard",
    );
    check(
        ShardedBackend::spawn(ShardedEngine::build(&data, 4, build)),
        &mut ShardedOracle(ShardedEngine::build(&data, 4, build)),
        "4 shards",
    );
}

/// A write call is one fault op whatever it carries, an `Insert` included:
/// on a 4-shard writable grid backend, `drop_at(1)` over `[Range, Insert,
/// Knn, Range]` loses the `Insert` — it fails typed and allocates no id, so
/// the last range, which covers its envelope, does not see it — and
/// requests 0, 2 and 3 match the oracle.
#[test]
fn one_write_call_is_one_fault_op_whatever_it_carries() {
    let data = soup(1500, 0x1D5);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let make = || ShardedEngine::build(&data, 4, build).with_rebuild(build);
    let arrival = Aabb::new(Point3::new(40.0, 40.0, 40.0), Point3::new(41.0, 41.0, 41.0));
    let requests = vec![
        Request::Range(vec![arrival, full_cover()]), // op 0
        Request::Insert(vec![arrival]),              // op 1: lost
        Request::Knn(vec![(Point3::new(40.5, 40.5, 40.5), 4)]), // op 2
        Request::Range(vec![arrival]),               // op 3
    ];
    let plan = FaultPlan::new().drop_at(1);
    let backend = ChaosBackend::new(ShardedBackend::spawn(make()), plan.clone());
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let label = "4 shards, dropped insert";
    let stats = drive_differential(service, &mut ShardedOracle(make()), &plan, &requests, label);
    assert_eq!(stats.failed_requests, 1, "{label}: the insert");
    assert_eq!(stats.elements_inserted, 0, "{label}: no id allocated");
    assert_eq!(stats.completed, requests.len() as u64, "{label}");
}

/// Dispatcher-level faults on the single-engine backend (rebuild writes).
#[test]
fn engine_dispatcher_faults_fail_typed_and_survivors_match_oracle() {
    let data = soup(1500, 0xD15E);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    dispatcher_faults_fail_typed_and_survivors_match(
        ShardedBackend::spawn(
            ShardedEngine::build(&data, 1, rebuild_only(build)).with_rebuild(rebuild_only(build)),
        ),
        &mut RebuildOracle::new(data, build),
        "engine/fixed-plan",
    );
}

/// The same on a strategy-served backend (`strategy_backend`, grid
/// migration in place): the write a dispatcher panic interrupts fails
/// typed, the service is not poisoned, and later reads match the strategy
/// oracle over the surviving write stream.
#[test]
fn strategy_dispatcher_faults_fail_typed_and_survivors_match_oracle() {
    let data = soup(1500, 0x57A7);
    let kind = UpdateStrategyKind::GridMigrate;
    let backend = strategy_backend(data.clone(), kind);
    let mut oracle = StrategyOracle {
        strategy: kind.create(&data),
        data,
        scratch: Default::default(),
    };
    dispatcher_faults_fail_typed_and_survivors_match(backend, &mut oracle, "strategy/fixed-plan");
}

/// A grid whose in-place write panics at element [`BOMB`] after writing its
/// geometry into the shard's data but not into the grid — the index torn,
/// the data a step ahead of it.
struct TornGrid(UniformGrid);

const BOMB: ElementId = 7;

impl SpatialIndex for TornGrid {
    fn name(&self) -> &'static str {
        "TornGrid"
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.0.range_into(data, query, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        let mut cost = ShardApplyCost::default();
        for update in updates {
            if update.0 == BOMB {
                data[BOMB as usize].shape = update.1;
                panic!("chaos: in-place write torn mid-batch");
            }
            cost.structural += self.0.update_in_place(data, &[*update])?.structural;
        }
        Some(cost)
    }
}

impl KnnIndex for TornGrid {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        self.0.knn_into(data, p, k, scratch, sink);
    }
}

/// A panic *inside* the in-place write of a one-shard backend, whose lane
/// runs inline on the dispatcher, with the index torn (the data a step
/// ahead of it): the lane's panic is caught like any pool job's and the
/// supervisor restarts shard 0 from its own clone, replaying the torn
/// lane on it — so the write is applied in full and acked, the
/// service keeps serving, and later reads match an oracle that applied
/// the write byte for byte.
#[test]
fn inline_apply_panic_restarts_the_shard_and_acks_the_write() {
    quiet_panics();
    let data = soup(1500, 0xB0B);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let torn_grid = move |d: &[Element]| TornGrid(build(d));
    let t1 = Aabb::new(Point3::new(2.0, 2.0, 2.0), Point3::new(3.5, 3.5, 3.5));
    let t4 = Aabb::new(Point3::new(95.0, 95.0, 95.0), Point3::new(96.5, 96.5, 96.5));
    let engine = ShardedEngine::build(&data, 1, torn_grid).with_rebuild(torn_grid);
    let service = SpatialService::spawn(
        ShardedBackend::spawn(engine),
        ServiceConfig::default().no_coalesce(),
    );
    let handle = service.handle();
    let torn = Request::StepDelta(vec![(3, t1), (BOMB, t1), (5, t1)]);
    assert_eq!(
        recv_bounded(&handle.submit(torn).unwrap(), "inline/apply-panic", 0).ok(),
        Some(Response::StepDelta(3)),
        "the restart applied the torn write in full, so it is acked"
    );
    // The restart replayed the whole torn lane on the shard's clone, so
    // the restarted shard holds every entry of it.
    let mut oracle = RebuildOracle::new(data, build);
    oracle.apply(&[
        WriteOp::Set(3, Shape::Box(t1)),
        WriteOp::Set(BOMB, Shape::Box(t1)),
        WriteOp::Set(5, Shape::Box(t1)),
    ]);
    let later = [
        Request::Range(vec![t1, full_cover()]),
        Request::Knn(vec![(Point3::new(2.5, 2.5, 2.5), 5)]),
        Request::StepDelta(vec![(9, t4)]),
        Request::Range(vec![t4]),
    ];
    for (op, req) in later.iter().enumerate() {
        let got = recv_bounded(
            &handle.submit(req.clone()).unwrap(),
            "inline/apply-panic",
            op + 1,
        );
        assert_eq!(got.ok(), Some(expected(&mut oracle, req)), "op {}", op + 1);
    }
    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.failed_requests, 0);
    assert_eq!(
        stats.updates_applied, 4,
        "the acked torn write counts its three entries, the later write one"
    );
}

/// A panicking shard worker is quarantined, restarted from its own element
/// clone, and the interrupted read batch is re-run: every response
/// — including the one whose first attempt panicked — is byte-identical to
/// the serial oracle, and the telemetry counters equal the plan's.
#[test]
fn sharded_worker_panic_restarts_and_matches_oracle() {
    quiet_panics();
    let data = soup(2000, 0xABBA);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let engine = ShardedEngine::build(&data, 4, build).with_rebuild(build);
    let mut oracle = ShardedOracle(ShardedEngine::build(&data, 4, build).with_rebuild(build));
    // Every request routes one job to every shard (full-coverage reads,
    // whole-tick writes), so shard 2's job #1 is request #1.
    let requests = vec![
        Request::Range(vec![full_cover()]),
        Request::Range(vec![full_cover()]), // shard 2 panics mid-read here
        Request::RangeCount(vec![full_cover()]),
        Request::StepDelta(step_envelopes(2000, 0x7E11)),
        Request::Range(vec![full_cover()]),
    ];
    let plan = FaultPlan::new().panic_on_shard(2, 1);
    let backend = ChaosBackend::new(ShardedBackend::spawn(engine), plan.clone());
    let stats = drive_differential(
        SpatialService::spawn(backend, ServiceConfig::default().no_coalesce()),
        &mut oracle,
        &plan,
        &requests,
        "sharded/worker-panic",
    );
    assert_eq!(
        stats.panics_caught,
        plan.planned_panics(),
        "counters match the plan"
    );
    assert_eq!(stats.shard_restarts, 1, "the shard came back");
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(stats.failed_requests, 0, "restart + re-run hid the panic");
    assert_eq!(stats.partial_responses, 0);
}

/// A worker panic *mid-write* with restart budget left: the shard is
/// rebuilt from its own clone with the torn lane replayed on it, so the
/// interrupted write is fully applied and every query admitted after it
/// sees it — the write barrier holds across a restart.
#[test]
fn post_restart_writes_stay_barrier_ordered() {
    quiet_panics();
    let data = soup(2000, 0xF00D);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let engine = ShardedEngine::build(&data, 4, build).with_rebuild(build);
    let mut oracle = ShardedOracle(ShardedEngine::build(&data, 4, build).with_rebuild(build));
    let requests = vec![
        Request::Range(vec![full_cover()]),
        Request::StepDelta(step_envelopes(2000, 0xAA01)),
        Request::Range(vec![full_cover()]),
        Request::StepDelta(step_envelopes(2000, 0xAA02)), // shard 2 panics mid-write
        Request::Range(vec![full_cover()]),
    ];
    let plan = FaultPlan::new().panic_on_shard(2, 3);
    let backend = ChaosBackend::new(ShardedBackend::spawn(engine), plan.clone());
    let stats = drive_differential(
        SpatialService::spawn(backend, ServiceConfig::default().no_coalesce()),
        &mut oracle,
        &plan,
        &requests,
        "sharded/write-restart",
    );
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(
        stats.failed_requests, 0,
        "the interrupted write still applied in full"
    );
    assert!(stats.updates_applied > 0);
}

/// A worker panic *mid-write* on a backend running **incremental** shard
/// executors: the shard restarts **exactly once**, the restart rebuilds
/// from its own clone with the torn lane replayed on it (so the
/// interrupted write is fully applied), and later sparse writes go back to the
/// in-place path — all byte-identical to a
/// rebuild-mode oracle over the same write stream.
#[test]
fn incremental_executor_mid_write_panic_restarts_exactly_once() {
    quiet_panics();
    let data = soup(2000, 0x17C5);
    let engine = sharded_strategy_engine(&data, 4, UpdateStrategyKind::GridMigrate);
    // The oracle runs the *rebuild* mode: the two write modes must be
    // indistinguishable through queries, panic or no panic.
    let mut oracle = ShardedOracle(rebuild_strategy_engine(
        &data,
        4,
        UpdateStrategyKind::GridMigrate,
    ));
    // A sparse jitter tick: a handful of elements nudged slightly from
    // where the *last full step* (h = 0xB2) left them — the lanes stay
    // geometry-only and resident, so incremental shards apply them
    // without rebuilding.
    let delta: Vec<(u32, Aabb)> = (0..12u32)
        .map(|j| {
            let id = mix(j ^ 0xD17) % 2000;
            let g = mix(id ^ 0xB2);
            let x = (g % 900) as f32 / 10.0 + 0.05;
            let y = ((g >> 8) % 900) as f32 / 10.0;
            let z = ((g >> 16) % 900) as f32 / 10.0;
            (
                id,
                Aabb::new(Point3::new(x, y, z), Point3::new(x + 1.0, y + 1.0, z + 1.0)),
            )
        })
        .collect();
    let requests = vec![
        Request::Range(vec![full_cover()]), // job 0 on every shard
        Request::StepDelta(step_envelopes(2000, 0xB1)), // job 1
        Request::Range(vec![full_cover()]), // job 2
        Request::StepDelta(step_envelopes(2000, 0xB2)), // job 3: shard 2 panics mid-write
        Request::Range(vec![full_cover()]), // restarted shard serves reads
        Request::StepDelta(delta),          // back on the in-place path
        Request::Range(vec![full_cover()]),
    ];
    let plan = FaultPlan::new().panic_on_shard(2, 3);
    let backend = ChaosBackend::new(ShardedBackend::spawn(engine), plan.clone());
    let stats = drive_differential(
        SpatialService::spawn(backend, ServiceConfig::default().no_coalesce()),
        &mut oracle,
        &plan,
        &requests,
        "sharded/incremental-write-restart",
    );
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1, "exactly one restart");
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(
        stats.failed_requests, 0,
        "the interrupted write still applied in full"
    );
    assert!(
        stats.rebuilds_avoided >= 1,
        "sparse lanes used the in-place path (got {})",
        stats.rebuilds_avoided
    );
    assert!(stats.updates_applied > 0);
}

/// With the restart budget exhausted the shard dies: range/count queries
/// degrade to partial coverage (reported per reply and in the stats), kNN
/// probes that need the dead shard fail typed, and writes keep flowing —
/// an element moved out of the dead region becomes visible again through
/// its new live shard.
#[test]
fn dead_shard_degrades_reads_and_fails_knn_typed() {
    quiet_panics();
    let data = soup(2000, 0xDEAD);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let engine = ShardedEngine::build(&data, 4, build).with_rebuild(build);
    let mut oracle = ShardedOracle(ShardedEngine::build(&data, 4, build).with_rebuild(build));
    let plan = FaultPlan::new().panic_on_shard(1, 1);
    let no_restarts = SupervisorPolicy {
        max_restarts: 0,
        ..SupervisorPolicy::default()
    };
    let backend = ChaosBackend::new(ShardedBackend::spawn_with(engine, no_restarts), plan);
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    let label = "sharded/dead-shard";

    // Job 0 on every shard: full coverage, byte-identical.
    let t = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    let full = expected(&mut oracle, &Request::Range(vec![full_cover()]));
    let reply = t.recv_reply().expect("healthy read");
    assert_eq!(reply.response, full);
    assert_eq!(reply.shards_skipped, 0);
    let full_ids = match &full {
        Response::Range(lists) => lists[0].clone(),
        _ => unreachable!(),
    };

    // Job 1 kills shard 1; the re-run degrades to the surviving shards.
    let t = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    let reply = t.recv_reply().expect("degraded read still completes");
    assert_eq!(reply.shards_skipped, 1, "one shard's coverage is gone");
    let got_ids = match &reply.response {
        Response::Range(lists) => lists[0].clone(),
        other => panic!("{label}: expected a range response, got {other:?}"),
    };
    assert!(
        got_ids.iter().all(|id| full_ids.contains(id)),
        "{label}: partial result must be a subset of full coverage"
    );
    assert!(
        got_ids.len() < full_ids.len(),
        "{label}: the dead shard owned some of the full result"
    );

    // Counts degrade the same way.
    let t = handle
        .submit(Request::RangeCount(vec![full_cover()]))
        .unwrap();
    let reply = t.recv_reply().expect("degraded count completes");
    assert_eq!(reply.shards_skipped, 1);
    match reply.response {
        Response::RangeCount(counts) => assert!(
            counts[0] < full_ids.len() as u64,
            "{label}: partial count below full coverage"
        ),
        other => panic!("{label}: expected a count response, got {other:?}"),
    }

    // A kNN probe that must consult the dead shard (k = whole dataset
    // forces the fan-out everywhere) fails typed instead of returning a
    // silently short neighbour list.
    let t = handle
        .submit(Request::Knn(vec![(Point3::new(0.5, 0.5, 0.5), 2000)]))
        .unwrap();
    match recv_bounded(&t, label, 3) {
        Err(RecvError::WorkerFailed { shard }) => assert_eq!(shard, 1),
        other => panic!("{label}: kNN over a dead shard should fail typed, got {other:?}"),
    }

    // Writes keep flowing: moving an element into a live shard's region
    // makes it queryable again through that shard.
    let target = Aabb::new(Point3::new(0.5, 0.5, 0.5), Point3::new(1.5, 1.5, 1.5));
    let t = handle
        .submit(Request::StepDelta(vec![(42, target)]))
        .unwrap();
    assert!(
        recv_bounded(&t, label, 4).is_ok(),
        "write through a degraded backend"
    );
    let t = handle.submit(Request::Range(vec![target])).unwrap();
    let reply = t.recv_reply().expect("read-back completes");
    assert_eq!(
        reply.shards_skipped, 0,
        "the target box never touches the dead region"
    );
    match reply.response {
        Response::Range(lists) => assert!(
            lists[0].contains(&42),
            "{label}: the migrated element is visible through its new shard"
        ),
        other => panic!("{label}: expected a range response, got {other:?}"),
    }

    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 0, "no budget, no restart");
    assert_eq!(stats.shards_dead, 1);
    assert!(stats.partial_responses >= 2, "range + count were partial");
}

/// A 4-shard grid backend whose rebuild recipe is `flaky`: it counts its
/// calls in the returned counter and panics on every call `fails(n)`
/// (`n` counts from 1) holds for. The shard indexes are built with a
/// plain grid build, so the recipe runs only when the supervisor restarts
/// a shard. Shard 1's job 1 panics, under a budget of three restarts with
/// no backoff. Returns the service, the counter and a twin oracle.
fn flaky_rebuild_service(
    data: &[Element],
    fails: fn(usize) -> bool,
) -> (SpatialService, Arc<AtomicUsize>, ShardedOracle<UniformGrid>) {
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let flaky = move |part: &[Element]| {
        let n = counter.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(!fails(n), "chaos: rebuild recipe call {n} fails");
        build(part)
    };
    let engine = ShardedEngine::build(data, 4, build).with_rebuild(flaky);
    let oracle = ShardedOracle(ShardedEngine::build(data, 4, build).with_rebuild(build));
    let policy = SupervisorPolicy {
        max_restarts: 3,
        backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let plan = FaultPlan::new().panic_on_shard(1, 1);
    let backend = ChaosBackend::new(ShardedBackend::spawn_with(engine, policy), plan);
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    (service, calls, oracle)
}

/// A rebuild recipe that panics on every call spends the whole restart
/// budget — each failed attempt is retried — and then the shard dies:
/// range reads degrade to partial coverage and a kNN probe homed in the
/// dead shard fails typed.
#[test]
fn rebuild_that_keeps_failing_kills_the_shard_after_its_budget() {
    quiet_panics();
    let data = soup(2000, 0xF1A1);
    let (service, calls, oracle) = flaky_rebuild_service(&data, |_| true);
    let handle = service.handle();
    let range = || {
        handle
            .submit(Request::Range(vec![full_cover()]))
            .unwrap()
            .recv_reply()
            .expect("range read completes")
    };
    assert_eq!(range().shards_skipped, 0, "job 0 runs on every shard");
    range(); // job 1 kills shard 1
    assert_eq!(
        calls.load(Ordering::SeqCst),
        3,
        "one call per budgeted attempt"
    );
    assert_eq!(range().shards_skipped, 1, "the dead shard is skipped");

    let region = oracle.0.router().region(1);
    let t = handle
        .submit(Request::Knn(vec![(region.center(), 4)]))
        .unwrap();
    match recv_bounded(&t, "sharded/failing-rebuild", 3) {
        Err(RecvError::WorkerFailed { shard }) => assert_eq!(shard, 1),
        other => panic!("a kNN probe homed in a dead shard fails typed, got {other:?}"),
    }

    let stats = service.shutdown();
    assert_eq!(
        calls.load(Ordering::SeqCst),
        3,
        "a dead shard is never rebuilt"
    );
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 0);
    assert_eq!(stats.shards_dead, 1);
}

/// A rebuild recipe that panics once is retried: the second attempt
/// restarts the shard, and every reply matches the serial oracle.
#[test]
fn rebuild_that_fails_once_restarts_on_the_next_attempt() {
    quiet_panics();
    let data = soup(2000, 0xF1A2);
    let (service, calls, mut oracle) = flaky_rebuild_service(&data, |n| n == 1);
    let requests = vec![
        Request::Range(vec![full_cover()]),
        Request::Range(vec![full_cover()]), // shard 1 panics; one failed rebuild
        Request::RangeCount(vec![full_cover()]),
        Request::Knn(vec![(Point3::new(30.0, 40.0, 50.0), 6)]),
        Request::Range(vec![full_cover()]),
    ];
    let stats = drive_differential(
        service,
        &mut oracle,
        &FaultPlan::new(),
        &requests,
        "sharded/flaky-rebuild",
    );
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "one failed and one good call"
    );
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(stats.failed_requests, 0);
}

/// A shard's job clock counts every job the shard ran, across its
/// restarts: the fault at job 4 fires on the fourth request (job 1 panicked
/// and was re-run as job 2). A clock restarted with the executor would
/// instead fire job 1 again on the third request.
#[test]
fn shard_job_clock_spans_its_restarts() {
    quiet_panics();
    let data = soup(2000, 0xC10C);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let engine = ShardedEngine::build(&data, 4, build).with_rebuild(build);
    let mut oracle = ShardedOracle(ShardedEngine::build(&data, 4, build).with_rebuild(build));
    let plan = FaultPlan::new().panic_on_shard(2, 1).panic_on_shard(2, 4);
    let backend = ChaosBackend::new(ShardedBackend::spawn(engine), plan);
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    let request = Request::Range(vec![full_cover()]);
    let want = expected(&mut oracle, &request);
    let mut restarts = Vec::new();
    for op in 0..8 {
        let t = handle.submit(request.clone()).unwrap();
        let got = recv_bounded(&t, "sharded/job-clock", op).expect("range read");
        assert_eq!(got, want, "op {op} diverged from the serial oracle");
        restarts.push(handle.stats().shard_restarts);
    }
    assert_eq!(restarts, [0, 1, 1, 2, 2, 2, 2, 2]);
    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 2);
    assert_eq!(stats.shards_dead, 0);
}

/// Randomized chaos differential: a seeded pseudo-random plan (fresh from
/// `SIMSPATIAL_FAULT_SEED` when set — CI's randomized row — fixed seeds
/// otherwise) mixing dispatcher panics, lost responses, delays and worker
/// crashes, against all three serving stacks. Every failure message echoes
/// the seed, so any red run reproduces locally.
#[test]
fn randomized_chaos_differential_across_backends() {
    quiet_panics();
    const OPS: u32 = 90;
    let generous = SupervisorPolicy {
        max_restarts: 1000,
        backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(2),
    };
    let seeds: Vec<u64> = match FaultPlan::from_env(u64::from(OPS), 4) {
        Some(plan) => vec![plan.seed()],
        None => vec![0xC0FFEE, 7, 0x5EED5EED],
    };
    for seed in seeds {
        let data = soup(1200, seed as u32 ^ 0x9E37);
        let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));

        // Single-engine backend: dispatcher-level faults only.
        let plan = FaultPlan::random(seed, u64::from(OPS), 0);
        let requests = chaos_requests(OPS, 1200, true, seed as u32);
        let mut oracle = RebuildOracle::new(data.clone(), build);
        let stats = drive_differential(
            SpatialService::spawn(
                ChaosBackend::new(
                    ShardedBackend::spawn(
                        ShardedEngine::build(&data, 1, rebuild_only(build))
                            .with_rebuild(rebuild_only(build)),
                    ),
                    plan.clone(),
                ),
                ServiceConfig::default().no_coalesce(),
            ),
            &mut oracle,
            &plan,
            &requests,
            &format!("random/engine SIMSPATIAL_FAULT_SEED={seed}"),
        );
        assert_eq!(
            stats.completed,
            u64::from(OPS),
            "seed {seed}: engine lost a ticket"
        );

        // Sharded backends (uniform slabs and median-cut regions): worker
        // crashes join the mix; a generous restart budget means every
        // worker-level panic is absorbed by quarantine + restart and only
        // dispatcher-level faults surface to clients.
        let plan = FaultPlan::random(seed, u64::from(OPS), 4);
        // Dispatcher panics fire deterministically (sequential driving, one
        // op per request, first fault per op wins); worker panics fire only
        // if their shard reaches the scheduled job sequence.
        let dispatcher_panics = (0..u64::from(OPS))
            .filter(|&op| plan.dispatcher_fault(op) == Some(FaultKind::Panic))
            .count() as u64;
        // A restarted shard is a fresh build over its own clone, so both
        // sides rebuild on every write: an in-place write leaves a cell order
        // (range emission order) that the restart does not reproduce.
        let build = rebuild_only(build);
        for median in [false, true] {
            let engine = if median {
                ShardedEngine::build_median(&data, 4, build).with_rebuild(build)
            } else {
                ShardedEngine::build(&data, 4, build).with_rebuild(build)
            };
            let oracle_engine = if median {
                ShardedEngine::build_median(&data, 4, build).with_rebuild(build)
            } else {
                ShardedEngine::build(&data, 4, build).with_rebuild(build)
            };
            let mut oracle = ShardedOracle(oracle_engine);
            let label = format!(
                "random/sharded{} SIMSPATIAL_FAULT_SEED={seed}",
                if median { "-median" } else { "-uniform" }
            );
            let backend = ChaosBackend::new(
                ShardedBackend::spawn_with(engine, generous.clone()),
                plan.clone(),
            );
            let stats = drive_differential(
                SpatialService::spawn(backend, ServiceConfig::default().no_coalesce()),
                &mut oracle,
                &plan,
                &requests,
                &label,
            );
            assert_eq!(stats.completed, u64::from(OPS), "{label}: lost a ticket");
            assert_eq!(stats.shards_dead, 0, "{label}: generous budget, no deaths");
            assert!(
                stats.panics_caught >= dispatcher_panics,
                "{label}: every scheduled dispatcher panic fired"
            );
            assert_eq!(
                stats.shard_restarts,
                stats.panics_caught - dispatcher_panics,
                "{label}: every worker panic was absorbed by a restart"
            );
        }
    }
}

/// Deadlines expire in both places they are checked: a request that goes
/// stale while queued behind a slow dispatch is shed at admission (the
/// backend never sees it), and a request whose own backend call outlives
/// its deadline completes with the same typed error.
#[test]
fn deadlines_expire_at_admission_and_completion() {
    quiet_panics();
    let data = soup(600, 0x7E57);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));

    // Completion-time expiry: the first dispatch itself is slow.
    let backend = ChaosBackend::new(
        ShardedBackend::spawn(ShardedEngine::build(&data, 1, build)),
        FaultPlan::new().delay_at(0, Duration::from_millis(120)),
    );
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    let t = handle
        .submit_with(
            Request::Range(vec![full_cover()]),
            SubmitOptions {
                deadline: Some(Duration::from_millis(20)),
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    match recv_bounded(&t, "deadline/completion", 0) {
        Err(RecvError::DeadlineExceeded) => {}
        other => panic!("slow dispatch should expire the deadline, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.deadline_expired, 1);

    // Admission-time shed: a fresh request goes stale while the dispatcher
    // is stuck in the previous (slow) call; it is dropped before the
    // backend ever sees it. The config-level default deadline applies to
    // plain submits.
    let backend = ChaosBackend::new(
        ShardedBackend::spawn(ShardedEngine::build(&data, 1, build)),
        FaultPlan::new().delay_at(0, Duration::from_millis(150)),
    );
    let config = ServiceConfig::default()
        .no_coalesce()
        .with_default_deadline(Duration::from_millis(25));
    let service = SpatialService::spawn(backend, config);
    let handle = service.handle();
    let slow = handle
        .submit_with(
            Request::Range(vec![full_cover()]),
            SubmitOptions {
                deadline: Some(Duration::from_secs(10)),
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(10)); // let the dispatcher grab `slow`
    let stale = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    assert!(recv_bounded(&slow, "deadline/admission", 0).is_ok());
    match recv_bounded(&stale, "deadline/admission", 1) {
        Err(RecvError::DeadlineExceeded) => {}
        other => panic!("queued-stale request should be shed, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.deadline_expired, 1);
    // The shed request never reached the backend: only `slow` consumed an op.
    assert_eq!(stats.completed, 2);
}

/// Every per-request option at once through the one entry point: a
/// nonblocking `Snapshot` read with its own 20 ms deadline. While the
/// dispatcher is wedged and the one-slot queue is taken, the same options
/// bounce `Full` with the request handed back; once admitted, the read
/// goes stale in the queue and is shed with `DeadlineExceeded`.
#[test]
fn nonblocking_deadlined_snapshot_read_is_bounced_then_shed() {
    quiet_panics();
    let data = soup(600, 0x0B75);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let backend = ChaosBackend::new(
        ShardedBackend::spawn(ShardedEngine::build(&data, 1, build)),
        FaultPlan::new().delay_at(0, Duration::from_millis(150)),
    );
    let config = ServiceConfig::default().no_coalesce().with_queue_cap(1);
    let service = SpatialService::spawn(backend, config);
    let handle = service.handle();

    // Wedge the dispatcher in the slow op; wait until it has drained the
    // queue, so the one slot is free again.
    let slow = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    for waited in 0.. {
        assert!(waited < 10_000, "dispatcher never picked up the slow op");
        if handle.queue_depth() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let read = Request::Range(vec![full_cover()]);
    let options = SubmitOptions {
        consistency: Consistency::Snapshot,
        deadline: Some(Duration::from_millis(20)),
        nonblocking: true,
    };
    let admitted = handle.submit_with(read.clone(), options).unwrap();
    match handle.submit_with(read.clone(), options) {
        Err(SubmitError::Full {
            request, capacity, ..
        }) => {
            assert_eq!(request, read, "Full hands the request back");
            assert_eq!(capacity, 1);
        }
        other => panic!("a taken one-slot queue must bounce, got {other:?}"),
    }
    assert_eq!(handle.stats().rejected, 1, "the bounce is counted");

    assert!(recv_bounded(&slow, "options/slow", 0).is_ok());
    match recv_bounded(&admitted, "options/admitted", 1) {
        Err(RecvError::DeadlineExceeded) => {}
        other => panic!("the queued-stale read should be shed, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!((stats.rejected, stats.deadline_expired), (1, 1));
    assert_eq!(stats.completed, 2);
}

/// All four ticket-redemption flavours against a stalled backend: the
/// non-blocking probes report "not yet" without consuming the ticket, the
/// bounded wait times out and later succeeds, and the blocking flavours
/// deliver response, latency and coverage metadata.
#[test]
fn recv_flavours_resolve_against_a_stalled_backend() {
    quiet_panics();
    let data = soup(600, 0x51A7);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let backend = ChaosBackend::new(
        ShardedBackend::spawn(ShardedEngine::build(&data, 1, build)),
        FaultPlan::new().delay_at(0, Duration::from_millis(150)),
    );
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();

    // Stalled: the probe flavours observe "pending", the ticket survives.
    let t = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    assert!(
        t.try_recv_reply().is_none(),
        "stalled ticket is still pending"
    );
    assert!(
        t.recv_deadline(Duration::from_millis(10)).is_none(),
        "bounded wait times out while the backend stalls"
    );
    let got = t
        .recv_deadline(Duration::from_secs(30))
        .expect("stall ends well before the bound");
    assert!(got.is_ok());

    // Healthy: the consuming flavours deliver the metadata variants.
    let t = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    let reply = t.recv_reply().expect("reply recv completes");
    assert!(matches!(reply.response, Response::Range(_)));
    assert!(reply.latency > Duration::ZERO);
    assert_eq!(reply.shards_skipped, 0);
    let t = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    assert!(t.recv().is_ok());
    service.shutdown();
}

/// A backend whose queries work but whose write path panics *inside* the
/// inner backend with no recovery override: the trait-default `recover`
/// refuses to vouch for a torn write, so the service poisons itself —
/// every in-flight and subsequent request completes typed, nothing hangs.
struct TornWriteBackend {
    inner: ShardedBackend,
}

impl ServiceBackend for TornWriteBackend {
    fn capabilities(&self) -> Capabilities {
        Capabilities { updates: true }
    }

    fn query_run(
        &mut self,
        run: &QueryRun,
        snapshot: bool,
        out: &mut QueryRunResults,
    ) -> QueryRunReport {
        self.inner.query_run(run, snapshot, out)
    }

    fn write_batch(&mut self, _ops: &[WriteOp]) -> (Vec<ElementId>, UpdateReport) {
        panic!("chaos: torn write without a recovery path");
    }

    // `recover` deliberately left at the trait default: `false` after a
    // write panic — the poisoning path under test.

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        self.inner.shard_sizes()
    }
}

#[test]
fn unrecovered_write_panic_poisons_the_service() {
    quiet_panics();
    let data = soup(600, 0xBAD);
    let build = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
    let backend = TornWriteBackend {
        inner: ShardedBackend::spawn(ShardedEngine::build(&data, 1, build)),
    };
    let service = SpatialService::spawn(backend, ServiceConfig::default());
    let handle = service.handle();

    // Pipeline a write and a read behind it, then redeem both: the write
    // panics, recovery refuses, and the queued read fails fast instead of
    // touching a possibly-torn backend.
    let target = Aabb::new(Point3::new(1.0, 1.0, 1.0), Point3::new(2.0, 2.0, 2.0));
    let w = handle
        .submit(Request::StepDelta(vec![(3, target)]))
        .unwrap();
    let r = handle.submit(Request::Range(vec![full_cover()])).unwrap();
    match recv_bounded(&w, "poison", 0) {
        Err(RecvError::WorkerFailed { .. }) => {}
        other => panic!("torn write should fail typed, got {other:?}"),
    }
    match recv_bounded(&r, "poison", 1) {
        Err(RecvError::WorkerFailed { .. }) => {}
        other => panic!("request behind the poison barrier should fail typed, got {other:?}"),
    }

    // The poisoned service closes its intake; new submissions are rejected
    // cleanly rather than queued into a void.
    assert!(!handle.is_open(), "poisoning closes the intake");
    assert!(matches!(
        handle.submit(Request::Range(vec![full_cover()])),
        Err(SubmitError::ShutDown(_))
    ));

    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert!(stats.failed_requests >= 2);
}

/// A shard worker panic **mid-write** on a snapshot-publishing backend:
/// the restart rebuilds the shard's live state from its own clone with the
/// torn lane replayed on it, the epoch still publishes exactly once, and
/// snapshot reads at the new epoch serve the rebuilt shard — byte-identical
/// to the oracle.
#[test]
fn snapshot_backend_shard_restart_republishes_fresh_snapshot() {
    quiet_panics();
    let data = soup(2000, 0x5A9B);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let engine = ShardedEngine::build(&data, 4, build).with_rebuild(build);
    let mut oracle = ShardedOracle(ShardedEngine::build(&data, 4, build).with_rebuild(build));
    // Request 0 (full-cover read) is every shard's job 0; request 1 (the
    // whole-tick write) is job 1 — where shard 2 panics mid-write.
    let plan = FaultPlan::new().panic_on_shard(2, 1);
    let backend = ChaosBackend::new(ShardedBackend::spawn_snapshot(engine), plan.clone());
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    let probe = Request::Range(vec![full_cover()]);

    let r0 = handle.submit(probe.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(r0.response, expected(&mut oracle, &probe));
    assert_eq!(r0.epoch, 0, "barrier read before any write is at epoch 0");

    let step = Request::StepDelta(step_envelopes(2000, 0x31AB));
    let ack = handle.submit(step.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(ack.response, expected(&mut oracle, &step));
    assert_eq!(ack.epoch, 1, "restart must not skip or repeat the epoch");

    let snap = handle
        .submit_at(probe.clone(), Consistency::Snapshot)
        .unwrap()
        .recv_reply()
        .unwrap();
    assert_eq!(snap.epoch, 1);
    assert_eq!(
        snap.response,
        expected(&mut oracle, &probe),
        "post-restart snapshot serves the rebuilt shard, not the stale fork"
    );

    // Another full round proves the restarted shard keeps serving.
    let step2 = Request::StepDelta(step_envelopes(2000, 0x31AC));
    let ack2 = handle.submit(step2.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(ack2.response, expected(&mut oracle, &step2));
    assert_eq!(ack2.epoch, 2);
    let snap2 = handle
        .submit_at(probe.clone(), Consistency::Snapshot)
        .unwrap()
        .recv_reply()
        .unwrap();
    assert_eq!(snap2.epoch, 2);
    assert_eq!(snap2.response, expected(&mut oracle, &probe));

    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1, "the shard came back");
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(stats.current_epoch, 2);
    assert_eq!(
        stats.epochs_published, 3,
        "exactly once per epoch across the restart"
    );
    assert_eq!(stats.failed_requests, 0);
}

// --------------------------------------------------------------------------
// Snapshot reads on incremental shards under faults. A snapshot-publishing
// backend whose shards write in place answers snapshot runs from the live
// executors, so a shard that restarts mid-write must serve snapshot reads
// from its rebuilt state. The oracle is the same incremental engine driven
// serially, so replies are compared byte for byte unless noted.
// --------------------------------------------------------------------------

fn incremental_grid_engine(data: &[Element], shards: usize) -> ShardedEngine<UniformGrid> {
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    ShardedEngine::build(data, shards, build).with_rebuild(build)
}

/// A **resident** delta tick: small elements nudged without leaving (or
/// entering) any shard, at least two movers in every shard — so every
/// shard's lane is non-empty and runs in place. `cur` tracks the envelopes
/// across ticks.
fn resident_delta(cur: &mut [Aabb], router: &ShardRouter, h: u32) -> Request {
    let mut covered = vec![0u32; router.shards()];
    let mut moves = Vec::new();
    for id in 0..cur.len() as u32 {
        if covered.iter().all(|&c| c >= 2) {
            break;
        }
        let g = mix(id ^ h);
        let c = cur[id as usize].center();
        let lo = Point3::new(
            c.x + (g % 5) as f32 * 0.04,
            c.y + ((g >> 3) % 5) as f32 * 0.04,
            c.z + ((g >> 6) % 5) as f32 * 0.04,
        );
        let dest = Aabb::new(lo, Point3::new(lo.x + 0.6, lo.y + 0.6, lo.z + 0.6));
        let shards = router.route(&dest);
        if id % 29 != 0
            && router.route(&cur[id as usize]) == shards
            && shards.clone().any(|s| covered[s] < 2)
        {
            for s in shards {
                covered[s] += 1;
            }
            cur[id as usize] = dest;
            moves.push((id, dest));
        }
    }
    assert!(
        covered.iter().all(|&c| c >= 2),
        "a shard got no resident mover"
    );
    Request::StepDelta(moves)
}

fn snapshot_read(handle: &ServiceHandle, probe: &Request) -> Reply {
    handle
        .submit_at(probe.clone(), Consistency::Snapshot)
        .unwrap()
        .recv_reply()
        .unwrap_or_else(|err| panic!("snapshot read failed: {err}"))
}

/// A mid-write worker panic restarts one shard of an incremental engine
/// from its own clone, and snapshot reads at the write's epoch serve
/// the rebuilt shard, on this tick and the next. The restarted shard was
/// rebuilt, not updated in place, so its ids come back in a different cell
/// order than the serial engine's — replies are compared to the oracle as
/// sets, and snapshot against live byte for byte.
#[test]
fn restarted_shard_serves_snapshots_that_match_live() {
    quiet_panics();
    let data = soup(2000, 0x3C0DE);
    let mut oracle = ShardedOracle(incremental_grid_engine(&data, 4));
    let router = oracle.0.router().clone();
    let mut cur: Vec<Aabb> = data.iter().map(Element::aabb).collect();
    // Per shard: job 0 = the barrier read, job 1 = the write lane — where
    // shard 2 panics mid-write.
    let plan = FaultPlan::new().panic_on_shard(2, 1);
    let backend = ChaosBackend::new(
        ShardedBackend::spawn_snapshot(incremental_grid_engine(&data, 4)),
        plan,
    );
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    let probe = Request::Range(vec![full_cover()]);
    let sorted = |response: Response| {
        let mut lists = response.into_range().expect("a range response");
        lists.iter_mut().for_each(|l| l.sort_unstable());
        lists
    };

    let r0 = handle.submit(probe.clone()).unwrap();
    assert_eq!(
        recv_bounded(&r0, "restart-snapshot", 0).unwrap(),
        expected(&mut oracle, &probe)
    );

    let tick = resident_delta(&mut cur, &router, 0xC1);
    let ack = handle.submit(tick.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(ack.response, expected(&mut oracle, &tick));
    assert_eq!(ack.epoch, 1);
    let snap = snapshot_read(&handle, &probe);
    assert_eq!(snap.epoch, 1);
    let live = handle.submit(probe.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(snap.response, live.response, "snapshot differs from live");
    assert_eq!(
        sorted(snap.response),
        sorted(expected(&mut oracle, &probe)),
        "the write was applied in full on the restarted shard"
    );

    let tick2 = resident_delta(&mut cur, &router, 0xC2);
    let ack2 = handle.submit(tick2.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(ack2.response, expected(&mut oracle, &tick2));
    assert_eq!(ack2.epoch, 2);
    let snap2 = snapshot_read(&handle, &probe);
    let live2 = handle.submit(probe.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(snap2.epoch, 2);
    assert_eq!(snap2.response, live2.response);
    assert_eq!(
        sorted(snap2.response),
        sorted(expected(&mut oracle, &probe))
    );

    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(stats.epochs_published, 3);
    assert_eq!(stats.failed_requests, 0);
}

/// A **migrating** delta tick: the resident nudges of [`resident_delta`]
/// (so every shard's lane is non-empty) plus `CROSSERS` small elements on
/// each side of the cut between shards 1 and 2 swapping sides — shards 1
/// and 2 take membership changes and splice, shards 0 and 3 just move.
/// Returns the request and one crosser's destination (a position-sensitive
/// probe point).
fn migrating_delta(cur: &mut [Aabb], router: &ShardRouter, h: u32) -> (Request, Point3) {
    const CROSSERS: usize = 6;
    let Request::StepDelta(mut moves) = resident_delta(cur, router, h) else {
        unreachable!("resident_delta builds a StepDelta");
    };
    let axis = router.axis();
    let cut = router.region(2).min.axis(axis);
    let mut landed = None;
    for side in [-1.0f32, 1.0] {
        let mut crossed = 0;
        // From the top of the id space: the resident movers come from the
        // bottom, and one tick must not write an id twice.
        for id in (0..cur.len() as u32).rev() {
            if crossed == CROSSERS {
                break;
            }
            let c = cur[id as usize].center();
            let d = (c.axis(axis) - cut) * side;
            if id % 29 == 0 || !(3.0..15.0).contains(&d) || moves.iter().any(|m| m.0 == id) {
                continue;
            }
            let mut to = c;
            *to.axis_mut(axis) = 2.0 * cut - c.axis(axis);
            let dest = Aabb::new(
                Point3::new(to.x - 0.3, to.y - 0.3, to.z - 0.3),
                Point3::new(to.x + 0.3, to.y + 0.3, to.z + 0.3),
            );
            assert_ne!(router.route(&cur[id as usize]), router.route(&dest));
            cur[id as usize] = dest;
            moves.push((id, dest));
            landed = Some(to);
            crossed += 1;
        }
        assert_eq!(crossed, CROSSERS, "not enough elements beside the cut");
    }
    (
        Request::StepDelta(moves),
        landed.expect("crossers were found"),
    )
}

/// A worker panic in the middle of a **splicing** lane (a migration tick:
/// shards 1 and 2 change membership in place): the torn shard restarts from
/// its own clone exactly once — the restart replays the whole lane on it,
/// arrivals and departures included, so the write is visible in full to
/// snapshot reads — while its three siblings, the other splicing
/// shard among them, apply their lanes in place. The next migration tick
/// splices on all four again.
#[test]
fn splicing_lane_panic_restarts_once_and_snapshots_match_live() {
    quiet_panics();
    let data = soup(2000, 0x5B11CE);
    let mut oracle = ShardedOracle(incremental_grid_engine(&data, 4));
    let router = oracle.0.router().clone();
    let mut cur: Vec<Aabb> = data.iter().map(Element::aabb).collect();
    // Per shard: job 0 = the barrier read, job 1 = the write lane — where
    // shard 2 panics with arrivals and departures in hand.
    let plan = FaultPlan::new().panic_on_shard(2, 1);
    let backend = ChaosBackend::new(
        ShardedBackend::spawn_snapshot(incremental_grid_engine(&data, 4)),
        plan,
    );
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    let probe = Request::Range(vec![full_cover()]);
    let sorted = |response: Response| {
        let mut lists = response.into_range().expect("a range response");
        lists.iter_mut().for_each(|l| l.sort_unstable());
        lists
    };

    let r0 = handle.submit(probe.clone()).unwrap();
    assert_eq!(
        recv_bounded(&r0, "splice-restart", 0).unwrap(),
        expected(&mut oracle, &probe)
    );

    let (tick, landed) = migrating_delta(&mut cur, &router, 0xD1);
    let ack = handle.submit(tick.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(ack.response, expected(&mut oracle, &tick));
    assert_eq!(ack.epoch, 1);
    // kNN selects under (distance, id), so even the rebuilt shard answers
    // byte for byte: the crossers are where the write put them.
    let near = Request::Knn(vec![(landed, 4)]);
    let snap_near = snapshot_read(&handle, &near);
    assert_eq!(snap_near.epoch, 1);
    assert_eq!(snap_near.response, expected(&mut oracle, &near));
    let snap = snapshot_read(&handle, &probe);
    let live = handle.submit(probe.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(snap.response, live.response, "snapshot differs from live");
    assert_eq!(
        sorted(snap.response),
        sorted(expected(&mut oracle, &probe)),
        "the write was applied in full on the restarted shard"
    );

    let (tick2, landed2) = migrating_delta(&mut cur, &router, 0xD2);
    let ack2 = handle.submit(tick2.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(ack2.response, expected(&mut oracle, &tick2));
    assert_eq!(ack2.epoch, 2);
    let near2 = Request::Knn(vec![(landed2, 4)]);
    assert_eq!(
        snapshot_read(&handle, &near2).response,
        expected(&mut oracle, &near2)
    );
    let snap2 = snapshot_read(&handle, &probe);
    let live2 = handle.submit(probe.clone()).unwrap().recv_reply().unwrap();
    assert_eq!(snap2.epoch, 2);
    assert_eq!(snap2.response, live2.response);
    assert_eq!(
        sorted(snap2.response),
        sorted(expected(&mut oracle, &probe))
    );

    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1, "exactly one restart");
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(stats.epochs_published, 3);
    assert_eq!(stats.failed_requests, 0);
    assert!(
        stats.spliced > 0,
        "the surviving lanes changed membership in place"
    );
}

/// A panic on a write lane that carries arrivals, departures and in-place
/// moves (shard 1 of a migration tick), under a rebuild recipe that fails
/// on its first call: the torn shard restarts from its own clone, and the
/// first attempt — which replays the lane's splice before the recipe
/// panics — leaves a clone the second attempt only finishes. The shard
/// restarts once and holds each arrival once and no departure (its size
/// and replies read as a serial twin whose shard 1 replayed the same lane
/// once), and every reply is byte-identical to that twin.
#[test]
fn torn_write_lane_replays_once_under_a_recipe_that_fails_once() {
    quiet_panics();
    let data = soup(2000, 0x2E71A7);
    let build = |part: &[Element]| UniformGrid::build(part, GridConfig::auto(part));
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let flaky = move |part: &[Element]| {
        let n = counter.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(n != 1, "chaos: rebuild recipe call {n} fails");
        build(part)
    };
    let policy = SupervisorPolicy {
        max_restarts: 3,
        backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    // Per shard: job 0 = the barrier read, job 1 = the write lane — where
    // shard 1 panics with arrivals, departures and moves in hand.
    let plan = FaultPlan::new().panic_on_shard(1, 1);
    let engine = ShardedEngine::build(&data, 4, build).with_rebuild(flaky);
    let backend = ChaosBackend::new(ShardedBackend::spawn_with(engine, policy), plan);
    let service = SpatialService::spawn(backend, ServiceConfig::default().no_coalesce());
    let handle = service.handle();
    let mut twin = ShardedOracle(incremental_grid_engine(&data, 4));
    let router = twin.0.router().clone();
    let mut cur: Vec<Aabb> = data.iter().map(Element::aabb).collect();
    let axis = router.axis();
    let mut inside = router.region(1);
    *inside.min.axis_mut(axis) += 0.01;
    *inside.max.axis_mut(axis) -= 0.01;
    let check = |twin: &mut ShardedOracle<UniformGrid>, landed: Point3, label: &str| {
        let reads = [
            Request::Range(vec![full_cover()]),
            // Routed to shard 1 alone, so its list is copied through
            // unmerged: an arrival held twice would show twice.
            Request::Range(vec![inside]),
            Request::RangeCount(vec![inside]),
            Request::Knn(vec![(landed, 6), (router.region(1).center(), 4)]),
        ];
        for (i, req) in reads.iter().enumerate() {
            let got = recv_bounded(&handle.submit(req.clone()).unwrap(), label, i);
            assert_eq!(got.ok(), Some(expected(twin, req)), "{label}: read {i}");
        }
        assert_eq!(handle.stats().shard_sizes, twin.0.shard_sizes(), "{label}");
    };

    let probe = Request::Range(vec![full_cover()]);
    let r0 = handle.submit(probe.clone()).unwrap();
    assert_eq!(
        recv_bounded(&r0, "torn-lane", 0).ok(),
        Some(expected(&mut twin, &probe))
    );
    let (tick, landed) = migrating_delta(&mut cur, &router, 0xE1);
    let ack = recv_bounded(&handle.submit(tick.clone()).unwrap(), "torn-lane", 1);
    let Request::StepDelta(moves) = &tick else {
        unreachable!("migrating_delta builds a StepDelta")
    };
    assert_eq!(ack.ok(), Some(Response::StepDelta(moves.len() as u64)));
    let ops: Vec<WriteOp> = moves
        .iter()
        .map(|&(id, bb)| WriteOp::Set(id, Shape::Box(bb)))
        .collect();
    let (mut arrivals, mut departures) = (0, 0);
    twin.0.write(&ops, |planner, executors, wave| {
        for (s, (exec, lane)) in executors.iter_mut().zip(wave.update).enumerate() {
            if s == 1 {
                exec.restart(planner, s, Some(lane))
                    .expect("the twin replays shard 1's lane");
            } else {
                lane.run(exec);
                // Crossers swap between shards 1 and 2: shard 2's
                // departures are shard 1's arrivals.
                if s == 2 {
                    (arrivals, departures) =
                        (lane.report().migrated_out, lane.report().migrated_in);
                }
            }
        }
        true
    });
    assert!(
        arrivals > 0 && departures > 0,
        "shard 1's lane carries {arrivals} arrivals and {departures} departures"
    );
    assert_eq!(calls.load(Ordering::SeqCst), 2, "one failed, one good call");
    check(&mut twin, landed, "after the torn tick");

    // The next migration tick runs every lane, shard 1's included.
    let (tick2, landed2) = migrating_delta(&mut cur, &router, 0xE2);
    let ack2 = recv_bounded(&handle.submit(tick2.clone()).unwrap(), "torn-lane", 2);
    assert_eq!(ack2.ok(), Some(expected(&mut twin, &tick2)));
    check(&mut twin, landed2, "after the next tick");

    let stats = service.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1, "exactly one restart");
    assert_eq!(stats.shards_dead, 0);
    assert_eq!(stats.failed_requests, 0);
}

/// A grid whose in-place write, on a lane that moves an element to
/// `mark`, corrupts the shard's clone — it stretches one element the lane
/// does not move over the whole soup — and then panics. The clone now
/// disagrees with the route table, and no lane replay repairs it.
struct CorruptingGrid {
    grid: UniformGrid,
    mark: Aabb,
}

impl SpatialIndex for CorruptingGrid {
    fn name(&self) -> &'static str {
        "CorruptingGrid"
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
        self.grid.range_into(data, query, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes()
    }

    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        if !updates.iter().any(|u| u.1 == Shape::Box(self.mark)) {
            return self.grid.update_in_place(data, updates);
        }
        let unmoved = (0..data.len() as ElementId)
            .find(|li| updates.binary_search_by_key(li, |u| u.0).is_err())
            .expect("the shard holds an element the lane does not move");
        data[unmoved as usize].shape = Shape::Box(full_cover());
        panic!("chaos: the in-place write corrupts the clone");
    }
}

impl KnnIndex for CorruptingGrid {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        self.grid.knn_into(data, p, k, scratch, sink);
    }
}

/// A shard whose clone disagrees with the route table after a panic is
/// declared dead on restart, never rebuilt, and fails typed: the write
/// that tore it fails with `WorkerFailed`, range reads skip it, and a kNN
/// probe homed in it fails typed — it never answers from the wrong
/// membership.
#[test]
fn clone_that_disagrees_with_the_route_table_kills_the_shard_typed() {
    quiet_panics();
    let data = soup(2000, 0xD1FF);
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let router = ShardRouter::new(Aabb::union_all(data.iter().map(Element::aabb)), 4);
    let region = router.region(0);
    let c = region.center();
    let mark = Aabb::new(c, Point3::new(c.x + 0.5, c.y + 0.5, c.z + 0.5));
    assert_eq!(router.route(&mark), 0..1, "the mark lies inside shard 0");
    let build = move |part: &[Element]| CorruptingGrid {
        grid: UniformGrid::build(part, GridConfig::auto(part)),
        mark,
    };
    let counted = move |part: &[Element]| {
        counter.fetch_add(1, Ordering::SeqCst);
        build(part)
    };
    let engine =
        ShardedEngine::build_with_router(&data, router.clone(), build).with_rebuild(counted);
    let mover = data
        .iter()
        .find(|e| router.route(&e.aabb()) == (0..1))
        .expect("an element of shard 0 alone")
        .id;
    let service = SpatialService::spawn(
        ShardedBackend::spawn(engine),
        ServiceConfig::default().no_coalesce(),
    );
    let handle = service.handle();

    let write = handle
        .submit(Request::StepDelta(vec![(mover, mark)]))
        .unwrap();
    match recv_bounded(&write, "diverged-clone", 0) {
        Err(RecvError::WorkerFailed { shard }) => assert_eq!(shard, 0),
        other => panic!("the write that tore a diverged shard fails typed, got {other:?}"),
    }
    let reply = handle
        .submit(Request::Range(vec![full_cover()]))
        .unwrap()
        .recv_reply()
        .expect("range reads degrade");
    assert_eq!(reply.shards_skipped, 1, "the dead shard is skipped");
    let knn = handle
        .submit(Request::Knn(vec![(region.center(), 4)]))
        .unwrap();
    match recv_bounded(&knn, "diverged-clone", 2) {
        Err(RecvError::WorkerFailed { shard }) => assert_eq!(shard, 0),
        other => panic!("a kNN probe homed in a dead shard fails typed, got {other:?}"),
    }

    let stats = service.shutdown();
    assert_eq!(
        calls.load(Ordering::SeqCst),
        0,
        "a diverged clone is never rebuilt"
    );
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 0);
    assert_eq!(stats.shards_dead, 1);
}
