//! The four closed-loop workloads.
//!
//! Every workload is driven by **one** generator thread that waits for its
//! replies (the callers being modelled — simulation loops, analysis tools —
//! do), over at most one connection, with a sliding window of [`WINDOW`]
//! outstanding requests. A round executes a fixed, seed-generated request
//! list; nothing in the load depends on how fast the system answers.
//!
//! A *cycle* is one turn of a workload's request pattern and is what
//! `tick_rate` counts: `engine_batch` — one range request + one kNN
//! request; `svc_read`/`net_read` — three range requests + one kNN request;
//! `sim_mixed` — one `StepDelta` + 32 monitor requests (a simulation tick).

use crate::data::{queries_in, Inputs, ReadPool, SimScript, SHARDS};
use crate::host::process_cpu;
use crate::oracle::{self, Digest, Tally};
use crate::trace::{SpanId, Tracer};
use simspatial_datagen::Dataset;
use simspatial_geom::{Element, ElementId, Point3, Shape, Vec3};
use simspatial_index::{
    BatchResults, GridConfig, KnnBatchResults, QueryEngine, ShardApplyCost, ShardedEngine,
    SpatialIndex, UniformGrid,
};
use simspatial_moving::{UpdateStrategy, UpdateStrategyKind};
use simspatial_net::wire::{self, DecodeLimits, ServerMsg};
use simspatial_net::{NetClient, NetConfig, NetServer};
use simspatial_service::{
    Consistency, Request, Response, ServiceConfig, ServiceHandle, ServiceStats, ShardedBackend,
    SpatialService, Ticket,
};
use simspatial_sim::{ServedSimulation, SimulationConfig, Workload};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// Outstanding requests the generator keeps in flight.
pub const WINDOW: usize = 16;
/// Seconds of work between two yardstick passes.
const SEGMENT_S: f64 = 0.12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EngineBatch,
    SvcRead,
    NetRead,
    SimMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::EngineBatch,
        Kind::SvcRead,
        Kind::NetRead,
        Kind::SimMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::EngineBatch => "engine_batch",
            Kind::SvcRead => "svc_read",
            Kind::NetRead => "net_read",
            Kind::SimMixed => "sim_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Cycles per second of wall time this workload sustains on the quiet
    /// reference host (2 × 2.1 GHz Xeon cores; `tick_rate` in
    /// `CALIBRATION.md`). Only used to turn `--seconds` into a *fixed*
    /// amount of work per round: the load is a function of `--seed` and
    /// `--seconds`, never of measured speed.
    pub fn nominal_cycles_per_s(self) -> f64 {
        match self {
            Kind::EngineBatch => 245.0,
            Kind::SvcRead => 5600.0,
            Kind::NetRead => 4400.0,
            Kind::SimMixed => 22.0,
        }
    }

    /// Cycles per segment — about [`SEGMENT_S`] of work on the reference
    /// host — after which the generator stands idle for one yardstick pass.
    pub fn segment_cycles(self) -> usize {
        ((self.nominal_cycles_per_s() * SEGMENT_S).round() as usize).max(1)
    }

    /// Cycles a full round is a multiple of, and never fewer than: ≥ 200
    /// range requests (so the per-round p95 has ≥ 10 samples beyond it),
    /// and on `sim_mixed` whole 16-tick script cycles, so that every round
    /// executes the identical operation list.
    pub fn cycle_quantum(self) -> usize {
        match self {
            Kind::EngineBatch => 200,
            Kind::SvcRead | Kind::NetRead => 67,
            Kind::SimMixed => crate::data::SIM_CYCLE,
        }
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub queries: u64,
    pub cycles: u64,
    /// Latency of every range request, µs (submit → reply redeemed).
    pub read_us: Vec<f64>,
    /// Latency of the workload's other request class, µs: kNN requests on
    /// the read workloads, `StepDelta` acks on `sim_mixed`.
    pub other_us: Vec<f64>,
    /// `wall_s` as the clock read it, before it was divided by how slow
    /// the host was (`raw_wall_s / wall_s` is the round's mean host factor:
    /// 1 on the quiet reference host).
    pub raw_wall_s: f64,
}

impl Round {
    pub fn host_factor(&self) -> f64 {
        self.raw_wall_s / self.wall_s
    }

    /// Appends a (normalised) segment's measurements to the round.
    pub fn absorb(&mut self, mut segment: Round) {
        self.wall_s += segment.wall_s;
        self.raw_wall_s += segment.raw_wall_s;
        self.cpu_s += segment.cpu_s;
        self.queries += segment.queries;
        self.cycles += segment.cycles;
        self.read_us.append(&mut segment.read_us);
        self.other_us.append(&mut segment.other_us);
    }

    /// Divides every timing of a segment by the host factor measured
    /// around it (see `reference.rs`).
    pub fn normalise(&mut self, host_factor: f64) {
        self.raw_wall_s = self.wall_s;
        self.wall_s /= host_factor;
        self.cpu_s /= host_factor;
        for us in self.read_us.iter_mut().chain(&mut self.other_us) {
            *us /= host_factor;
        }
    }
}

/// A named measurement.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A workload's generated requests and their expected answers — built once
/// per run, outside `setup_s`.
pub enum Prepared {
    Read {
        pool: ReadPool,
        expected: Vec<Digest>,
    },
    Sim {
        script: SimScript,
        expected: Vec<Vec<Digest>>,
    },
}

pub fn prepare(kind: Kind, inputs: &mut Inputs, corrupt_oracle: bool) -> Prepared {
    match kind {
        Kind::EngineBatch | Kind::SvcRead | Kind::NetRead => {
            let pool = if kind == Kind::EngineBatch {
                ReadPool::engine_batch(inputs)
            } else {
                ReadPool::svc_read(inputs)
            };
            let mut expected = oracle::expect_pool(&inputs.elements, &pool);
            if corrupt_oracle {
                oracle::corrupt(&mut expected[0]);
            }
            Prepared::Read { pool, expected }
        }
        Kind::SimMixed => {
            let script = SimScript::generate(inputs);
            let mut expected = oracle::expect_sim(&script);
            if corrupt_oracle {
                expected.iter_mut().for_each(|s| oracle::corrupt(&mut s[0]));
            }
            Prepared::Sim { script, expected }
        }
    }
}

/// A built serving stack that can run rounds.
pub trait Stack {
    /// Runs cycles `cycles.start..cycles.end` of the round's request list,
    /// checking every reply; returns with nothing outstanding. (A round is
    /// driven as several such segments with a yardstick pass between them.)
    fn segment(&mut self, cycles: Range<usize>, tracer: &mut Tracer, tally: &mut Tally) -> Round;
    /// `memory_bytes()` of everything serving the data.
    fn memory_bytes(&self) -> usize;
    fn service_stats(&self) -> Option<ServiceStats> {
        None
    }
    /// Measurements only the traced run takes, after its rounds.
    fn probe(&mut self, _inputs: &Inputs, _out: &mut Vec<Metric>) {}
    /// Finishes any verification deferred past timing, then stops every
    /// thread the stack started.
    fn shutdown(self: Box<Self>, tally: &mut Tally);
}

/// Builds the stack for `kind` and serves its first reply — the interval
/// `setup_s` measures.
pub fn build<'a>(
    kind: Kind,
    inputs: &'a Inputs,
    prepared: &'a Prepared,
    tally: &mut Tally,
) -> Box<dyn Stack + 'a> {
    match (kind, prepared) {
        (Kind::EngineBatch, Prepared::Read { pool, expected }) => {
            Box::new(EngineStack::build(&inputs.elements, pool, expected, tally))
        }
        (Kind::SvcRead, Prepared::Read { pool, expected }) => Box::new(ServiceStack::build(
            &inputs.elements,
            pool,
            expected,
            false,
            tally,
        )),
        (Kind::NetRead, Prepared::Read { pool, expected }) => Box::new(ServiceStack::build(
            &inputs.elements,
            pool,
            expected,
            true,
            tally,
        )),
        (Kind::SimMixed, Prepared::Sim { script, expected }) => {
            Box::new(SimStack::build(script, expected, tally))
        }
        _ => unreachable!("prepare() and build() disagree on {kind:?}"),
    }
}

pub fn grid(part: &[Element]) -> UniformGrid {
    UniformGrid::build(part, GridConfig::auto(part))
}

fn micros(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e6
}

/// Starts a segment's clocks and its parent span.
fn start_segment(tracer: &mut Tracer) -> (std::time::Duration, Instant, Option<SpanId>) {
    let cpu = process_cpu();
    let wall = Instant::now();
    (cpu, wall, tracer.open("segment", wall, None, 0))
}

fn end_segment(
    round: &mut Round,
    (cpu, wall, span): (std::time::Duration, Instant, Option<SpanId>),
    tracer: &mut Tracer,
) {
    let now = Instant::now();
    round.wall_s = now.duration_since(wall).as_secs_f64();
    round.cpu_s = (process_cpu() - cpu).as_secs_f64();
    tracer.close(span, now);
}

// --------------------------------------------------------------------------
// engine_batch
// --------------------------------------------------------------------------

/// One thread, `QueryEngine` over `UniformGrid`: kernel + index + engine do
/// all the work, service and net none.
struct EngineStack<'a> {
    elements: &'a [Element],
    pool: &'a ReadPool,
    expected: &'a [Digest],
    /// The kNN requests' points, unzipped from `(point, k)` pairs.
    probes: Vec<Vec<Point3>>,
    grid: UniformGrid,
    engine: QueryEngine,
    ranges: BatchResults,
    knns: KnnBatchResults,
    next_id: u64,
}

impl<'a> EngineStack<'a> {
    fn build(
        elements: &'a [Element],
        pool: &'a ReadPool,
        expected: &'a [Digest],
        tally: &mut Tally,
    ) -> Self {
        let probes = pool
            .knn
            .iter()
            .map(|r| match r {
                Request::Knn(ps) => ps.iter().map(|&(p, _)| p).collect(),
                other => unreachable!("kNN pool holds {other:?}"),
            })
            .collect();
        let mut stack = EngineStack {
            elements,
            pool,
            expected,
            probes,
            grid: grid(elements),
            engine: QueryEngine::new(),
            ranges: BatchResults::new(),
            knns: KnnBatchResults::new(),
            next_id: 0,
        };
        let digest = stack.execute(0);
        tally.record(digest == expected[0]);
        stack
    }

    /// Executes pool slot `slot` and digests what the engine collected.
    fn execute(&mut self, slot: usize) -> Digest {
        match self.pool.request(slot) {
            Request::Range(boxes) => {
                self.engine
                    .range_collect(&self.grid, self.elements, boxes, &mut self.ranges);
                oracle::digest_batch(&self.ranges)
            }
            _ => {
                let points = &self.probes[slot - self.pool.range.len()];
                self.engine.knn_collect(
                    &self.grid,
                    self.elements,
                    points,
                    crate::data::KNN_K,
                    &mut self.knns,
                );
                oracle::digest_knn_batch(&self.knns)
            }
        }
    }
}

impl Stack for EngineStack<'_> {
    fn segment(&mut self, cycles: Range<usize>, tracer: &mut Tracer, tally: &mut Tally) -> Round {
        let mut round = Round::default();
        let clocks = start_segment(tracer);
        let pool = self.pool;
        for c in cycles {
            for (slot, request) in pool.cycle(c) {
                let is_range = slot < pool.range.len();
                let start = Instant::now();
                let digest = self.execute(slot);
                let done = Instant::now();
                let name = if is_range {
                    "engine.range_collect"
                } else {
                    "engine.knn_collect"
                };
                tracer.child(name, start, done, clocks.2, self.next_id);
                self.next_id += 1;
                tally.record(digest == self.expected[slot]);
                round.queries += queries_in(request);
                let class = if is_range {
                    &mut round.read_us
                } else {
                    &mut round.other_us
                };
                class.push(micros(start, done));
            }
            round.cycles += 1;
        }
        end_segment(&mut round, clocks, tracer);
        round
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.elements) + self.grid.memory_bytes() + self.engine.memory_bytes()
    }

    fn shutdown(self: Box<Self>, _tally: &mut Tally) {}
}

// --------------------------------------------------------------------------
// svc_read / net_read
// --------------------------------------------------------------------------

/// The generator's one path to the service: in-process tickets, or one
/// pipelined TCP connection. Replies are redeemed oldest-first.
enum Link {
    InProc {
        handle: ServiceHandle,
        tickets: VecDeque<Ticket>,
    },
    Tcp {
        client: NetClient,
        corrs: VecDeque<u64>,
        retries: u64,
    },
}

impl Link {
    /// Span names of (sending a request, waiting for a reply).
    fn span_names(&self) -> (&'static str, &'static str) {
        match self {
            Link::InProc { .. } => ("service.submit", "service.redeem_wait"),
            Link::Tcp { .. } => ("net.send", "net.recv_wait"),
        }
    }

    /// Submits (in-process) or enqueues (TCP) one request; `false` when the
    /// service refused it.
    fn send(&mut self, request: &Request, consistency: Consistency) -> bool {
        match self {
            Link::InProc { handle, tickets } => {
                match handle.submit_at(request.clone(), consistency) {
                    Ok(ticket) => {
                        tickets.push_back(ticket);
                        true
                    }
                    Err(_) => false,
                }
            }
            Link::Tcp { client, corrs, .. } => {
                match client.enqueue_at(request, Some(consistency)) {
                    Ok(corr) => {
                        corrs.push_back(corr);
                        true
                    }
                    Err(_) => false,
                }
            }
        }
    }

    /// Ships everything enqueued (a no-op in-process). A transport error
    /// surfaces when the replies are redeemed.
    fn flush(&mut self) {
        if let Link::Tcp { client, .. } = self {
            let _ = client.flush();
        }
    }

    /// Blocks for the oldest outstanding request's reply; `None` when it
    /// failed (typed error, `Retry` shed, out-of-order or broken stream).
    fn recv(&mut self) -> Option<Response> {
        match self {
            Link::InProc { tickets, .. } => tickets.pop_front()?.recv().ok(),
            Link::Tcp {
                client,
                corrs,
                retries,
            } => {
                let want = corrs.pop_front()?;
                match client.recv_msg().ok()? {
                    ServerMsg::Reply { corr, response, .. } if corr == want => Some(response),
                    // The window (16) never reaches the tenant's staging
                    // bound (256), so a shed request is a defect, not load:
                    // it is counted and failed, not resent.
                    ServerMsg::Retry { .. } => {
                        *retries += 1;
                        None
                    }
                    _ => None,
                }
            }
        }
    }
}

/// A request in flight.
struct Pending {
    slot: usize,
    id: u64,
    submitted: Instant,
    span: Option<SpanId>,
}

/// `SpatialService` over a 4-shard `ShardedBackend` (pool of 2, snapshots
/// off, `Barrier` reads), reached in-process or over loopback TCP.
struct ServiceStack<'a> {
    pool: &'a ReadPool,
    expected: &'a [Digest],
    handle: ServiceHandle,
    link: Link,
    front: Front,
    connect_s: f64,
    next_id: u64,
}

/// Who owns the service: the stack itself, or the TCP server in front of it.
enum Front {
    InProc(SpatialService),
    Tcp(NetServer),
}

impl<'a> ServiceStack<'a> {
    fn build(
        elements: &[Element],
        pool: &'a ReadPool,
        expected: &'a [Digest],
        tcp: bool,
        tally: &mut Tally,
    ) -> Self {
        let backend = ShardedBackend::spawn(ShardedEngine::build(elements, SHARDS, grid));
        let service = SpatialService::spawn(backend, ServiceConfig::default());
        let handle = service.handle();
        let mut stack = if tcp {
            let server = NetServer::bind(service, "127.0.0.1:0", NetConfig::default())
                .expect("bind a loopback port");
            let connecting = Instant::now();
            let client = NetClient::connect(server.local_addr(), "bench")
                .expect("connect to the server just bound");
            ServiceStack {
                pool,
                expected,
                handle,
                link: Link::Tcp {
                    client,
                    corrs: VecDeque::with_capacity(WINDOW),
                    retries: 0,
                },
                front: Front::Tcp(server),
                connect_s: connecting.elapsed().as_secs_f64(),
                next_id: 0,
            }
        } else {
            ServiceStack {
                pool,
                expected,
                link: Link::InProc {
                    handle: handle.clone(),
                    tickets: VecDeque::with_capacity(WINDOW),
                },
                handle,
                front: Front::InProc(service),
                connect_s: 0.0,
                next_id: 0,
            }
        };
        let sent = stack.link.send(pool.request(0), Consistency::Barrier);
        stack.link.flush();
        let served = if sent { stack.link.recv() } else { None };
        tally.record(served.is_some_and(|r| oracle::digest_response(&r) == Some(expected[0])));
        stack
    }

    fn redeem(
        &mut self,
        outstanding: &mut VecDeque<Pending>,
        round: &mut Round,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        let Some(p) = outstanding.pop_front() else {
            return;
        };
        let waiting = tracer.now();
        let served = self.link.recv();
        let done = Instant::now();
        tracer.child(self.link.span_names().1, waiting, done, p.span, p.id);
        tracer.close(p.span, done);
        tally.record(
            served.is_some_and(|r| oracle::digest_response(&r) == Some(self.expected[p.slot])),
        );
        let class = if p.slot < self.pool.range.len() {
            &mut round.read_us
        } else {
            &mut round.other_us
        };
        class.push(micros(p.submitted, done));
    }
}

impl Stack for ServiceStack<'_> {
    fn segment(&mut self, cycles: Range<usize>, tracer: &mut Tracer, tally: &mut Tally) -> Round {
        let mut round = Round::default();
        let clocks = start_segment(tracer);
        let pool = self.pool;
        let mut outstanding: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
        for c in cycles {
            for (slot, request) in pool.cycle(c) {
                if outstanding.len() == WINDOW {
                    self.redeem(&mut outstanding, &mut round, tracer, tally);
                }
                let id = self.next_id;
                self.next_id += 1;
                let submitted = Instant::now();
                let span = tracer.open("request", submitted, clocks.2, id);
                let sent = self.link.send(request, Consistency::Barrier);
                // The first 16 go out in one burst; after that every send
                // is shipped at once (recv-one / send-one).
                if outstanding.len() + 1 == WINDOW {
                    self.link.flush();
                }
                if tracer.is_on() {
                    tracer.child(
                        self.link.span_names().0,
                        submitted,
                        Instant::now(),
                        span,
                        id,
                    );
                }
                round.queries += queries_in(request);
                if sent {
                    outstanding.push_back(Pending {
                        slot,
                        id,
                        submitted,
                        span,
                    });
                } else {
                    tally.record(false);
                }
            }
            round.cycles += 1;
        }
        self.link.flush();
        while !outstanding.is_empty() {
            self.redeem(&mut outstanding, &mut round, tracer, tally);
        }
        end_segment(&mut round, clocks, tracer);
        round
    }

    fn memory_bytes(&self) -> usize {
        self.handle.stats().memory_bytes
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.handle.stats())
    }

    fn probe(&mut self, _inputs: &Inputs, out: &mut Vec<Metric>) {
        let Link::Tcp { retries, .. } = &self.link else {
            return;
        };
        out.push(metric("net.retries", *retries as f64, "count"));
        out.push(metric("net.connect_s", self.connect_s, "s"));

        // Codec cost and frame sizes on the workload's own messages: every
        // distinct request and the reply the service gives it.
        let limits = DecodeLimits {
            max_frame: NetConfig::default().max_frame,
            max_items: NetConfig::default().max_items,
        };
        let replies: Vec<(u64, Response)> = (0..self.pool.slots())
            .map(|slot| {
                let reply = self
                    .handle
                    .submit(self.pool.request(slot).clone())
                    .expect("service is up")
                    .recv_reply()
                    .expect("codec probe read");
                (reply.epoch, reply.response)
            })
            .collect();
        let (mut request_frame, mut reply_frame) = (Vec::new(), Vec::new());
        let mut bytes = vec![0usize; self.pool.slots()];
        let started = Instant::now();
        for (slot, (epoch, response)) in replies.iter().enumerate() {
            wire::encode_request(
                &mut request_frame,
                slot as u64,
                Some(Consistency::Barrier),
                self.pool.request(slot),
            );
            let decoded = wire::decode_client_msg(&request_frame, &limits);
            wire::encode_reply(&mut reply_frame, slot as u64, 0, *epoch, response);
            let answered = wire::decode_server_msg(&reply_frame);
            assert!(decoded.is_ok() && answered.is_ok(), "codec round trip");
            std::hint::black_box((&decoded, &answered));
            // Each frame travels behind a 4-byte length prefix.
            bytes[slot] = request_frame.len() + reply_frame.len() + 8;
        }
        let codec_us = started.elapsed().as_secs_f64() * 1e6 / replies.len() as f64;
        out.push(metric("net.codec_us_per_req", codec_us, "us"));

        // Mean over the request list of one round, not over the pool: kNN
        // slots are reused three times as often per slot.
        let cycles = self.pool.range.len() / self.pool.range_per_cycle;
        let (mut total, mut count) = (0usize, 0usize);
        for c in 0..cycles {
            for (slot, _) in self.pool.cycle(c) {
                total += bytes[slot];
                count += 1;
            }
        }
        out.push(metric(
            "net.bytes_per_req",
            total as f64 / count as f64,
            "B",
        ));
    }

    fn shutdown(self: Box<Self>, _tally: &mut Tally) {
        let ServiceStack { link, front, .. } = *self;
        // Close the connection first, so the server's reader sees EOF.
        drop(link);
        match front {
            Front::InProc(service) => drop(service.shutdown()),
            Front::Tcp(server) => drop(server.shutdown()),
        }
    }
}

// --------------------------------------------------------------------------
// sim_mixed
// --------------------------------------------------------------------------

/// A monitor reply kept for verification after timing.
struct Observed {
    monitor: usize,
    tick: u64,
    epoch: u64,
    digest: Option<Digest>,
}

/// Writes beside reads: a snapshot-publishing 4-shard backend whose shards
/// are center-placed grids maintained by per-element cell migration.
///
/// Not `sharded_strategy_engine(.., GridMigrate, Incremental)`, which the
/// issue names: `spawn_snapshot` needs `Clone` indexes and `StrategyIndex`
/// (a boxed strategy) is not. The shard index is the `UniformGrid` that
/// `GridMigrate` wraps and the apply closure, [`migrate_in_place`], repeats
/// `GridMigrate::update_batch`'s loop — so this workload prices
/// `UniformGrid::update`, the sharded engine's write path and the service's
/// epoch publish, and no code of `crates/moving`.
struct SimStack<'a> {
    script: &'a SimScript,
    expected: &'a [Vec<Digest>],
    service: SpatialService,
    handle: ServiceHandle,
    ticks_done: u64,
    observed: Vec<Observed>,
    next_id: u64,
}

fn migrate_in_place(
    grid: &mut UniformGrid,
    data: &mut [Element],
    updates: &[(ElementId, Shape)],
) -> ShardApplyCost {
    let mut cost = ShardApplyCost::default();
    for &(id, shape) in updates {
        let element = &mut data[id as usize];
        let old = element.clone();
        element.shape = shape;
        if grid.update(&old, element) {
            cost.structural += 1;
        } else {
            cost.absorbed += 1;
        }
    }
    cost
}

impl<'a> SimStack<'a> {
    fn build(script: &'a SimScript, expected: &'a [Vec<Digest>], tally: &mut Tally) -> Self {
        let engine = ShardedEngine::build(&script.elements, SHARDS, grid)
            .with_rebuild(grid)
            .with_apply(migrate_in_place);
        let service = SpatialService::spawn(
            ShardedBackend::spawn_snapshot(engine),
            ServiceConfig::default(),
        );
        let handle = service.handle();
        let first = handle
            .submit_at(script.monitors[0].clone(), Consistency::Snapshot)
            .ok()
            .and_then(|t| t.recv_reply().ok());
        tally.record(first.is_some_and(|r| {
            r.epoch == 0 && oracle::digest_response(&r.response) == Some(expected[0][0])
        }));
        SimStack {
            script,
            expected,
            service,
            handle,
            ticks_done: 0,
            observed: Vec::new(),
            next_id: 0,
        }
    }
}

impl Stack for SimStack<'_> {
    fn segment(&mut self, cycles: Range<usize>, tracer: &mut Tracer, tally: &mut Tally) -> Round {
        let mut round = Round::default();
        let clocks = start_segment(tracer);
        let script = self.script;
        let mut monitors: Vec<(Pending, Option<Ticket>)> =
            Vec::with_capacity(script.monitors.len());
        // The script position carries over from segment to segment; rounds
        // are whole 16-tick cycles, so every round replays the same ticks.
        for _ in cycles {
            let tick = self.ticks_done;
            // The tick's delta leaves the driver as an owned request.
            let delta = script.ticks[(tick % script.ticks.len() as u64) as usize].clone();
            let moved = delta.len() as u64;
            let write_id = self.next_id;
            let write_submitted = Instant::now();
            let write_span = tracer.open("request", write_submitted, clocks.2, write_id);
            let write = self.handle.submit(Request::StepDelta(delta)).ok();
            if tracer.is_on() {
                tracer.child(
                    "service.submit",
                    write_submitted,
                    Instant::now(),
                    write_span,
                    write_id,
                );
            }
            // Without waiting for the ack: the tick's monitor reads.
            for (m, request) in script.monitors.iter().enumerate() {
                let id = write_id + 1 + m as u64;
                let submitted = Instant::now();
                let span = tracer.open("request", submitted, clocks.2, id);
                let ticket = self
                    .handle
                    .submit_at(request.clone(), Consistency::Snapshot)
                    .ok();
                if tracer.is_on() {
                    tracer.child("service.submit", submitted, Instant::now(), span, id);
                }
                round.queries += queries_in(request);
                monitors.push((
                    Pending {
                        slot: m,
                        id,
                        submitted,
                        span,
                    },
                    ticket,
                ));
            }
            self.next_id = write_id + 1 + script.monitors.len() as u64;
            // Redeem all: the reads in order, then the write's ack.
            for (p, ticket) in monitors.drain(..) {
                let waiting = tracer.now();
                let reply = ticket.and_then(|t| t.recv_reply().ok());
                let done = Instant::now();
                tracer.child("service.redeem_wait", waiting, done, p.span, p.id);
                tracer.close(p.span, done);
                round.read_us.push(micros(p.submitted, done));
                match reply {
                    Some(r) => self.observed.push(Observed {
                        monitor: p.slot,
                        tick,
                        epoch: r.epoch,
                        digest: oracle::digest_response(&r.response),
                    }),
                    None => tally.record(false),
                }
            }
            let waiting = tracer.now();
            let ack = write.and_then(|t| t.recv_reply().ok());
            let done = Instant::now();
            tracer.child("service.redeem_wait", waiting, done, write_span, write_id);
            tracer.close(write_span, done);
            round.other_us.push(micros(write_submitted, done));
            // Tick t is the (t+1)-th write barrier, so its ack reports the
            // epoch t+1, having applied every mover exactly once.
            tally.record(
                ack.is_some_and(|a| {
                    a.epoch == tick + 1 && a.response.into_applied() == Some(moved)
                }),
            );
            self.ticks_done += 1;
            round.cycles += 1;
        }
        end_segment(&mut round, clocks, tracer);
        round
    }

    fn memory_bytes(&self) -> usize {
        let stats = self.handle.stats();
        stats.memory_bytes + stats.snapshot_clone_bytes as usize
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.handle.stats())
    }

    /// `sim.step_us`: the repository's own served simulation loop on this
    /// backend. Runs last — it moves elements off the scripted cycle.
    fn probe(&mut self, inputs: &Inputs, out: &mut Vec<Metric>) {
        const STEPS: usize = 8;
        let movers = self.script.movers_per_tick;
        let mut sim = ServedSimulation::new(
            Dataset::new(self.script.elements.clone(), inputs.universe),
            Box::new(HopWorkload { movers, step: 0 }),
            self.handle.clone(),
            SimulationConfig {
                strategy: UpdateStrategyKind::NoIndexScan,
                monitor_queries_per_step: self.script.monitors.len() * crate::data::SIM_BOXES,
                monitor_selectivity: 5e-4,
                seed: inputs.seed,
            },
        )
        .with_monitor_consistency(Consistency::Snapshot);
        let mut step_us = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            let started = Instant::now();
            let report = sim.run_step().expect("service is up");
            step_us.push(started.elapsed().as_secs_f64() * 1e6);
            assert!(
                report.delta && report.moved > 0,
                "probe steps are delta ticks"
            );
        }
        out.push(metric(
            "sim.step_us",
            crate::stats::quantile(&step_us, 0.25),
            "us",
        ));
    }

    fn shutdown(self: Box<Self>, tally: &mut Tally) {
        // Each stored snapshot read against the serial state at the epoch
        // its reply reported — which must be a published prefix of the
        // write stream as of its own tick: `tick` or `tick + 1` barriers.
        for o in &self.observed {
            let fresh_enough = o.epoch == o.tick || o.epoch == o.tick + 1;
            let state = &self.expected[SimScript::state_of(o.epoch)];
            tally.record(fresh_enough && o.digest == Some(state[o.monitor]));
        }
        self.service.shutdown();
    }
}

/// The probe simulation's movement: each step nudges a rotating 2 % of the
/// elements, everything else stands still (so ticks ship as `StepDelta`).
struct HopWorkload {
    movers: usize,
    step: usize,
}

impl Workload for HopWorkload {
    fn name(&self) -> &'static str {
        "hop"
    }

    fn displacements(&mut self, data: &Dataset, _index: &dyn UpdateStrategy) -> Vec<Vec3> {
        let mut moves = vec![Vec3::ZERO; data.len()];
        let first = (self.step * self.movers) % data.len();
        let hop = if self.step.is_multiple_of(2) {
            0.25
        } else {
            -0.25
        };
        for i in 0..self.movers {
            moves[(first + i) % data.len()] = Vec3::new(hop, hop, hop);
        }
        self.step += 1;
        moves
    }
}
