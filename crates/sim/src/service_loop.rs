//! Driving a simulation through the concurrent query service.
//!
//! The classic [`Simulation`] owns its index strategy and runs
//! single-threaded: update → maintain → monitor. This module is the served
//! variant of the same loop — Figure 1's alternating update/query workload
//! pushed through one `simspatial-service` admission path, so simulation
//! ticks and the (possibly many, possibly remote) monitoring clients share
//! the scheduler, the write-barrier ordering and the stats:
//!
//! 1. **update phase** (local): a [`Simulation`] computes displacements
//!    against its own probe strategy, and the dataset moves.
//! 2. **tick submission**: the elements that moved go to the service as
//!    one [`Request::StepDelta`] — a write barrier: every query admitted
//!    after it sees the post-step dataset.
//! 3. **monitor phase** (served): the in-situ analysis range queries are
//!    submitted as ordinary requests and coalesce with everyone else's.
//!
//! The service stores tick geometry as envelope boxes (the wire vocabulary
//! of [`Request::StepDelta`]), so served monitor results are against
//! bounding boxes rather than exact shapes — the approximation every index
//! in the paper makes at its filter stage anyway.

use crate::engine::{Simulation, SimulationConfig, Workload};
use simspatial_datagen::Dataset;
use simspatial_index::ShardApplyCost;
use simspatial_service::{Consistency, Reply, Request, ServiceHandle, SubmitError, Ticket};
use std::time::Instant;

/// Timing and accounting of one step driven through the service.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServedStepReport {
    /// Step number (0-based).
    pub step: usize,
    /// Seconds computing displacements (local update phase).
    pub update_s: f64,
    /// Seconds from submitting the tick to its acknowledgement (includes
    /// queueing behind other clients — that is the point).
    pub tick_s: f64,
    /// Element envelope entries acknowledged by the tick: the moved count
    /// (the dataset size when every element moves).
    pub applied: u64,
    /// Elements whose envelope actually changed this step.
    pub moved: u64,
    /// Always `true`: every tick ships as a [`Request::StepDelta`] of the
    /// moved elements. Kept because the benchmark's `sim.step_us` probe
    /// asserts it.
    pub delta: bool,
    /// Seconds executing the served monitoring queries.
    pub monitor_s: f64,
    /// Total monitoring query results.
    pub monitor_results: u64,
    /// Epoch whose publication made this step's tick visible.
    pub tick_epoch: u64,
    /// Epoch the monitoring queries were answered at. Under
    /// [`Consistency::Barrier`] this is the live epoch; under snapshot
    /// modes it names the published state the counts describe.
    pub monitor_epoch: u64,
    /// Local maintenance accounting of the driver's probe strategy.
    pub probe_cost: ShardApplyCost,
}

/// A time-stepped simulation whose ticks and monitoring queries are served
/// by a [`SpatialService`](simspatial_service::SpatialService).
///
/// The driver's local half is a [`Simulation`], whose strategy (configured
/// by [`SimulationConfig::strategy`]) is the workload's query surface
/// during the update phase; the *served* dataset is maintained exclusively
/// through [`Request::StepDelta`] write barriers, so any number of
/// concurrent clients can query the simulation mid-flight with serial
/// semantics.
pub struct ServedSimulation {
    sim: Simulation,
    handle: ServiceHandle,
    monitor_consistency: Consistency,
    last_tick_epoch: u64,
}

impl ServedSimulation {
    /// Sets up the driver. `handle` must belong to a **writable** service
    /// whose backend was built over the same initial elements as `data`
    /// (same ids, same order) — e.g.
    /// `ShardedBackend::spawn(ShardedEngine::build(data.elements(), 1, f).with_rebuild(f))`.
    pub fn new(
        data: Dataset,
        workload: Box<dyn Workload>,
        handle: ServiceHandle,
        config: SimulationConfig,
    ) -> Self {
        assert!(
            handle.capabilities().updates,
            "ServedSimulation needs a writable service backend"
        );
        Self {
            sim: Simulation::new(data, workload, config),
            handle,
            monitor_consistency: Consistency::Barrier,
            last_tick_epoch: 0,
        }
    }

    /// Sets the consistency mode for the monitoring queries. Defaults to
    /// [`Consistency::Barrier`] (the pre-epoch semantics: every monitor
    /// query pays strict ordering behind the tick). Passing
    /// [`Consistency::ReadYourWrites`] is special-cased: the driver
    /// substitutes each step's own acknowledged tick epoch as the floor,
    /// so monitors are guaranteed to observe the tick they follow while
    /// still running from published snapshots. [`Consistency::Snapshot`]
    /// reads whatever epoch was last published — maximum overlap with
    /// in-flight ticks, possibly one step stale.
    pub fn with_monitor_consistency(mut self, consistency: Consistency) -> Self {
        self.monitor_consistency = consistency;
        self
    }

    /// Epoch whose publication made the most recent tick visible (zero
    /// before the first tick).
    pub fn last_tick_epoch(&self) -> u64 {
        self.last_tick_epoch
    }

    /// The live (driver-side) dataset.
    pub fn data(&self) -> &Dataset {
        self.sim.data()
    }

    /// Steps executed so far.
    pub fn steps_done(&self) -> usize {
        self.sim.steps_done()
    }

    /// Executes one step: local update phase, one [`Request::StepDelta`]
    /// tick of the movers through the service, then the monitoring queries
    /// through the service. Returns the phase-split report.
    ///
    /// # Errors
    ///
    /// Propagates [`SubmitError`] when the service shuts down mid-step
    /// (a tick acknowledged with an error also maps to `ShutDown`).
    pub fn run_step(&mut self) -> Result<ServedStepReport, SubmitError> {
        let (local, moved) = self.sim.advance();
        let mut report = ServedStepReport {
            step: local.step,
            update_s: local.update_s,
            delta: true,
            probe_cost: local.cost,
            ..Default::default()
        };

        // --- tick through the service (write barrier) -------------------
        // Only the movers `advance` recorded ship, so the wire payload and
        // the apply cost scale with the moved count, not the dataset size.
        let t = Instant::now();
        report.moved = moved.len() as u64;
        let ack = recv(self.handle.submit(Request::StepDelta(moved))?)?;
        report.applied = ack.response.into_applied().unwrap_or(0);
        report.tick_epoch = ack.epoch;
        self.last_tick_epoch = ack.epoch;
        report.tick_s = t.elapsed().as_secs_f64();

        // --- monitor phase (served) -------------------------------------
        let t = Instant::now();
        let boxes = self.sim.monitor_boxes();
        if !boxes.is_empty() {
            // Read-your-writes monitors floor on *this* step's tick: they
            // must observe the barrier they follow, nothing older.
            let mode = match self.monitor_consistency {
                Consistency::ReadYourWrites { .. } => Consistency::ReadYourWrites {
                    min_epoch: self.last_tick_epoch,
                },
                other => other,
            };
            let ticket = self.handle.submit_at(Request::RangeCount(boxes), mode)?;
            let reply = recv(ticket)?;
            report.monitor_epoch = reply.epoch;
            if let Some(counts) = reply.response.into_range_counts() {
                report.monitor_results = counts.iter().sum();
            }
        }
        report.monitor_s = t.elapsed().as_secs_f64();

        Ok(report)
    }

    /// Runs `n` steps, stopping early if the service shuts down.
    pub fn run(&mut self, n: usize) -> Result<Vec<ServedStepReport>, SubmitError> {
        (0..n).map(|_| self.run_step()).collect()
    }
}

/// Maps a ticket's shutdown error back onto [`SubmitError`] so the step
/// loop has one error type. Returns the full [`Reply`] so callers keep
/// the epoch alongside the response.
fn recv(ticket: Ticket) -> Result<Reply, SubmitError> {
    ticket
        .recv_reply()
        .map_err(|_| SubmitError::ShutDown(Request::Range(Vec::new())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlasticityWorkload;
    use simspatial_datagen::ElementSoupBuilder;
    use simspatial_geom::{Aabb, Element, Point3, Shape};
    use simspatial_index::{GridConfig, LinearScan, ShardedEngine, UniformGrid};
    use simspatial_moving::UpdateStrategyKind;
    use simspatial_service::{ServiceConfig, ShardedBackend, SpatialService};

    #[test]
    fn served_steps_match_local_state() {
        let data = ElementSoupBuilder::new()
            .count(400)
            .universe_side(30.0)
            .seed(42)
            .build();
        let grid = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
        let backend = ShardedBackend::spawn(
            ShardedEngine::build(data.elements(), 1, grid).with_rebuild(grid),
        );
        let service = SpatialService::spawn(backend, ServiceConfig::default());
        let mut sim = ServedSimulation::new(
            data,
            Box::new(PlasticityWorkload::with_sigma(0.05, 9)),
            service.handle(),
            SimulationConfig {
                strategy: UpdateStrategyKind::NoIndexScan,
                monitor_queries_per_step: 8,
                monitor_selectivity: 1e-3,
                seed: 11,
            },
        );
        let reports = sim.run(3).expect("service stays up");
        assert_eq!(reports.len(), 3);
        assert_eq!(sim.steps_done(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.step, i);
            assert_eq!(r.applied, 400, "every tick applies the whole dataset");
        }

        // The served dataset is the driver's elements with box geometry:
        // an arbitrary served range query must match a local scan over
        // that state exactly.
        let boxed: Vec<Element> = sim
            .data()
            .elements()
            .iter()
            .map(|e| Element::new(e.id, Shape::Box(e.aabb())))
            .collect();
        let q = Aabb::new(Point3::new(5.0, 5.0, 5.0), Point3::new(20.0, 20.0, 20.0));
        let handle = service.handle();
        let mut got = handle
            .submit(Request::Range(vec![q]))
            .unwrap()
            .recv()
            .unwrap()
            .into_range()
            .unwrap()
            .remove(0);
        let scan = LinearScan::build(&boxed);
        let mut want = simspatial_index::SpatialIndex::range(&scan, &boxed, &q);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);

        let stats = service.shutdown();
        assert_eq!(stats.updates_applied, 3 * 400);
        assert_eq!(stats.update_dispatches, 3);
    }

    /// Moves only the first `movers` elements by a fixed offset — a
    /// deterministic sparse workload for exercising delta ticks.
    struct SparseWorkload {
        movers: usize,
    }

    impl Workload for SparseWorkload {
        fn name(&self) -> &'static str {
            "sparse"
        }

        fn displacements(
            &mut self,
            data: &simspatial_datagen::Dataset,
            _index: &dyn simspatial_moving::UpdateStrategy,
        ) -> Vec<simspatial_geom::Vec3> {
            (0..data.len())
                .map(|i| {
                    if i < self.movers {
                        simspatial_geom::Vec3::new(0.4, 0.0, 0.0)
                    } else {
                        simspatial_geom::Vec3::ZERO
                    }
                })
                .collect()
        }
    }

    #[test]
    fn sparse_steps_ship_delta_ticks() {
        let data = ElementSoupBuilder::new()
            .count(400)
            .universe_side(30.0)
            .seed(7)
            .build();
        let grid = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
        let backend = ShardedBackend::spawn(
            ShardedEngine::build(data.elements(), 1, grid).with_rebuild(grid),
        );
        let service = SpatialService::spawn(backend, ServiceConfig::default());
        let mut sim = ServedSimulation::new(
            data,
            Box::new(SparseWorkload { movers: 10 }),
            service.handle(),
            SimulationConfig {
                strategy: UpdateStrategyKind::NoIndexScan,
                monitor_queries_per_step: 0,
                monitor_selectivity: 1e-3,
                seed: 3,
            },
        );
        let reports = sim.run(3).expect("service stays up");
        for r in &reports {
            assert!(r.delta, "every tick ships as a delta");
            assert_eq!(r.moved, 10);
            assert_eq!(r.applied, 10, "a delta tick ships only the movers");
        }

        // Served state after three delta ticks must match the driver's
        // elements exactly, including the 390 never-shipped elements.
        let boxed: Vec<Element> = sim
            .data()
            .elements()
            .iter()
            .map(|e| Element::new(e.id, Shape::Box(e.aabb())))
            .collect();
        let q = Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(30.0, 30.0, 30.0));
        let handle = service.handle();
        let mut got = handle
            .submit(Request::Range(vec![q]))
            .unwrap()
            .recv()
            .unwrap()
            .into_range()
            .unwrap()
            .remove(0);
        let scan = LinearScan::build(&boxed);
        let mut want = simspatial_index::SpatialIndex::range(&scan, &boxed, &q);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);

        let stats = service.shutdown();
        assert_eq!(stats.updates_applied, 3 * 10);
        assert_eq!(stats.updates_shipped, 3 * 10);
    }

    /// Monitors running at read-your-writes consistency observe the tick
    /// they follow, and every reply reports the epoch lifecycle the
    /// one-shard backend publishes: one epoch per tick, monitors floored at
    /// it.
    #[test]
    fn snapshot_monitors_observe_their_own_tick() {
        let data = ElementSoupBuilder::new()
            .count(300)
            .universe_side(30.0)
            .seed(23)
            .build();
        let grid = |d: &[Element]| UniformGrid::build(d, GridConfig::auto(d));
        let backend = ShardedBackend::spawn(
            ShardedEngine::build(data.elements(), 1, grid).with_rebuild(grid),
        );
        let service = SpatialService::spawn(backend, ServiceConfig::default());
        let mut sim = ServedSimulation::new(
            data,
            Box::new(PlasticityWorkload::with_sigma(0.05, 9)),
            service.handle(),
            SimulationConfig {
                strategy: UpdateStrategyKind::NoIndexScan,
                monitor_queries_per_step: 6,
                monitor_selectivity: 1e-3,
                seed: 5,
            },
        )
        .with_monitor_consistency(Consistency::ReadYourWrites { min_epoch: 0 });
        let reports = sim.run(3).expect("service stays up");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.tick_epoch, i as u64 + 1, "one published epoch per tick");
            assert!(
                r.monitor_epoch >= r.tick_epoch,
                "step {i}: read-your-writes monitor ran at epoch {} < tick epoch {}",
                r.monitor_epoch,
                r.tick_epoch
            );
        }
        assert_eq!(sim.last_tick_epoch(), 3);

        // With the write stream quiet, a snapshot read and the barrier
        // oracle answer from the same (latest) epoch — identical results.
        let q = Aabb::new(Point3::new(2.0, 2.0, 2.0), Point3::new(25.0, 25.0, 25.0));
        let handle = service.handle();
        let snap = handle
            .submit_at(Request::RangeCount(vec![q]), Consistency::Snapshot)
            .unwrap()
            .recv_reply()
            .unwrap();
        let barrier = handle
            .submit(Request::RangeCount(vec![q]))
            .unwrap()
            .recv_reply()
            .unwrap();
        assert_eq!(snap.response, barrier.response);
        assert_eq!(snap.epoch, 3, "snapshot reads report the published epoch");

        let stats = service.shutdown();
        assert_eq!(stats.current_epoch, 3);
        assert!(stats.snapshot_reads >= 1, "the snapshot read was hoisted");
    }

    #[test]
    #[should_panic(expected = "writable")]
    fn read_only_service_is_rejected_up_front() {
        let data = ElementSoupBuilder::new()
            .count(50)
            .universe_side(10.0)
            .seed(1)
            .build();
        let backend =
            ShardedBackend::spawn(ShardedEngine::build(data.elements(), 1, LinearScan::build));
        let service = SpatialService::spawn(backend, ServiceConfig::default());
        let _sim = ServedSimulation::new(
            data,
            Box::new(PlasticityWorkload::with_sigma(0.05, 9)),
            service.handle(),
            SimulationConfig::default(),
        );
    }
}
