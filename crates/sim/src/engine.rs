//! The step loop: update → maintain → monitor.

use simspatial_datagen::{Dataset, QueryWorkload};
use simspatial_geom::{Aabb, ElementId, Vec3};
use simspatial_index::{ShardApplyCost, SpatialIndex};
use simspatial_moving::{UpdateStrategy, UpdateStrategyKind};
use std::time::Instant;

/// A simulation workload: computes the per-element displacement of one step.
///
/// The workload may query `index` — that is how the paper's n-body and
/// material-science updates work ("analysis & update queries" in Figure 1's
/// simulation phase). The returned vector must have exactly one entry per
/// element.
pub trait Workload {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Displacements for the current step.
    fn displacements(&mut self, data: &Dataset, index: &dyn UpdateStrategy) -> Vec<Vec3>;
}

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Index-maintenance strategy under test.
    pub strategy: UpdateStrategyKind,
    /// Monitoring range queries issued per step (the paper speaks of
    /// thousands; scale to taste).
    pub monitor_queries_per_step: usize,
    /// Selectivity of each monitoring query (fraction of universe volume).
    pub monitor_selectivity: f64,
    /// Seed for the monitor query generator.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            strategy: UpdateStrategyKind::GridMigrate,
            monitor_queries_per_step: 100,
            monitor_selectivity: 1e-4,
            seed: 0x51_0AD,
        }
    }
}

/// Timing and accounting of one executed step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepReport {
    /// Step number (0-based).
    pub step: usize,
    /// Seconds computing displacements (the workload).
    pub update_s: f64,
    /// Seconds maintaining the index.
    pub maintain_s: f64,
    /// Seconds executing monitoring queries.
    pub monitor_s: f64,
    /// Index maintenance accounting.
    pub cost: ShardApplyCost,
    /// Total monitoring query results.
    pub monitor_results: u64,
}

impl StepReport {
    /// Total wall-clock of the step.
    pub fn total_s(&self) -> f64 {
        self.update_s + self.maintain_s + self.monitor_s
    }
}

/// A running time-stepped simulation.
pub struct Simulation {
    data: Dataset,
    workload: Box<dyn Workload>,
    strategy: Box<dyn UpdateStrategy>,
    queries: QueryWorkload,
    config: SimulationConfig,
    step: usize,
}

impl Simulation {
    /// Sets up the simulation: builds the strategy's index over the initial
    /// state.
    pub fn new(data: Dataset, workload: Box<dyn Workload>, config: SimulationConfig) -> Self {
        let strategy = config.strategy.create(data.elements());
        let universe = data.universe();
        assert!(
            !universe.is_empty(),
            "simulation needs a non-empty universe"
        );
        Self {
            strategy,
            workload,
            queries: QueryWorkload::new(universe, config.seed),
            data,
            config,
            step: 0,
        }
    }

    /// The live dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The maintenance strategy under test.
    pub fn strategy(&self) -> &dyn UpdateStrategy {
        self.strategy.as_ref()
    }

    /// Steps executed so far.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Executes one step and reports its cost split.
    pub fn run_step(&mut self) -> StepReport {
        let (mut report, _) = self.advance();

        // --- monitor phase --------------------------------------------------
        let t = Instant::now();
        for q in self.monitor_boxes() {
            report.monitor_results += self.strategy.range(self.data.elements(), &q).len() as u64;
        }
        report.monitor_s = t.elapsed().as_secs_f64();
        report
    }

    /// Runs the next step's update and maintenance phases and counts the
    /// step done. The update phase turns the displacements into one dense
    /// `(id, shape)` write batch in id order, which the strategy writes in
    /// place. Returns the report — its monitor fields zero — and the
    /// movers: `(id, new envelope)` of each element whose envelope changed,
    /// in id order.
    pub(crate) fn advance(&mut self) -> (StepReport, Vec<(ElementId, Aabb)>) {
        // --- update phase -------------------------------------------------
        let t = Instant::now();
        let moves = self
            .workload
            .displacements(&self.data, self.strategy.as_ref());
        assert_eq!(
            moves.len(),
            self.data.len(),
            "workload must move every element"
        );
        let batch = self.data.displaced_batch(&moves);
        let movers = batch
            .iter()
            .map(|&(id, shape)| (id, shape.aabb()))
            .filter(|&(id, envelope)| envelope != self.data.get(id).aabb())
            .collect();
        let update_s = t.elapsed().as_secs_f64();

        // --- maintenance phase ---------------------------------------------
        let t = Instant::now();
        let cost = self
            .strategy
            .update_in_place(self.data.elements_mut(), &batch)
            .expect("every update strategy writes in place");
        self.step += 1;
        let report = StepReport {
            step: self.step - 1,
            update_s,
            maintain_s: t.elapsed().as_secs_f64(),
            cost,
            ..Default::default()
        };
        (report, movers)
    }

    /// The monitoring query boxes of one step.
    pub(crate) fn monitor_boxes(&mut self) -> Vec<Aabb> {
        (0..self.config.monitor_queries_per_step)
            .map(|_| self.queries.range_query(self.config.monitor_selectivity))
            .collect()
    }

    /// Runs `n` steps, returning all reports.
    pub fn run(&mut self, n: usize) -> Vec<StepReport> {
        (0..n).map(|_| self.run_step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlasticityWorkload;
    use simspatial_datagen::ElementSoupBuilder;
    use simspatial_geom::Point3;
    use simspatial_index::{LinearScan, SpatialIndex};

    fn small_sim(strategy: UpdateStrategyKind) -> Simulation {
        let data = ElementSoupBuilder::new()
            .count(500)
            .universe_side(30.0)
            .seed(77)
            .build();
        Simulation::new(
            data,
            Box::new(PlasticityWorkload::with_sigma(0.05, 12)),
            SimulationConfig {
                strategy,
                monitor_queries_per_step: 10,
                monitor_selectivity: 1e-3,
                seed: 5,
            },
        )
    }

    #[test]
    fn steps_advance_and_report() {
        let mut sim = small_sim(UpdateStrategyKind::GridMigrate);
        let reports = sim.run(3);
        assert_eq!(reports.len(), 3);
        assert_eq!(sim.steps_done(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.step, i);
            assert!(r.total_s() >= 0.0);
            assert_eq!(r.cost.structural + r.cost.absorbed, 500);
        }
    }

    #[test]
    fn index_stays_consistent_with_dataset() {
        for kind in [
            UpdateStrategyKind::GridMigrate,
            UpdateStrategyKind::RTreeReinsert,
            UpdateStrategyKind::RTreeRebuild,
        ] {
            let mut sim = small_sim(kind);
            sim.run(3);
            let scan = LinearScan::build(sim.data().elements());
            let q = Aabb::new(Point3::new(5.0, 5.0, 5.0), Point3::new(15.0, 15.0, 15.0));
            let mut a = sim.strategy().range(sim.data().elements(), &q);
            let mut b = scan.range(sim.data().elements(), &q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn elements_stay_in_universe() {
        let mut sim = small_sim(UpdateStrategyKind::NoIndexScan);
        sim.run(5);
        let u = sim.data().universe();
        for e in sim.data().elements() {
            assert!(u.contains_point(&e.center()), "element {} escaped", e.id);
        }
    }
}
