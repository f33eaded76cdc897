//! Incremental grid migration — the paper's §4.3 favourite.
//!
//! "Using grids will considerably lower the overhead of updates. Clearly the
//! small movement means that only few elements switch grid cell in every
//! step, thereby requiring few updates to the data structure."
//!
//! A persistent center-placed [`UniformGrid`]: each step compares old and
//! new cell coordinates per element and touches the structure only on a
//! switch. With the paper's 0.04 µm steps and cells of a few µm, switches
//! are a small fraction of the dataset — `ShardApplyCost::{absorbed,
//! structural}` shows the ratio directly.

use simspatial_geom::{Aabb, Element, ElementId, Point3, QueryScratch, Shape};
use simspatial_index::{
    GridConfig, GridPlacement, KnnIndex, KnnSink, RangeSink, ShardApplyCost, SpatialIndex,
    UniformGrid,
};

/// A persistent uniform grid maintained by cell migration.
#[derive(Debug)]
pub struct GridMigrate {
    grid: UniformGrid,
}

impl GridMigrate {
    /// Builds the grid with the analytical auto resolution, center placement.
    pub fn build(elements: &[Element]) -> Self {
        let mut config = GridConfig::auto(elements);
        config.placement = GridPlacement::Center;
        Self {
            grid: UniformGrid::build(elements, config),
        }
    }

    /// Builds with an explicit cell side (resolution ablation, E7/E9).
    pub fn with_cell_side(elements: &[Element], cell_side: f32) -> Self {
        let config = GridConfig::with_cell_side(cell_side, GridPlacement::Center);
        Self {
            grid: UniformGrid::build(elements, config),
        }
    }

    /// The realised cell side.
    pub fn cell_side(&self) -> f32 {
        self.grid.cell_side()
    }
}

impl SpatialIndex for GridMigrate {
    fn name(&self) -> &'static str {
        "Grid/migrate"
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

    fn splice(&mut self, removed: &[Element], remap: &[ElementId], inserted: &[Element]) -> bool {
        self.grid.splice(removed, remap, inserted)
    }

    /// Sparse write path: each updated element migrates individually, so a
    /// batch of K updates costs O(K) regardless of the dataset size — what
    /// makes grid-backed shards cheap on delta ticks.
    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        self.grid.update_in_place(data, updates)
    }
}

impl KnnIndex for GridMigrate {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::UpdateStrategyKind;
    use simspatial_datagen::{ElementSoupBuilder, PlasticityModel};

    #[test]
    fn stays_correct_across_steps() {
        crate::testutil::check_strategy_correctness(UpdateStrategyKind::GridMigrate);
    }

    #[test]
    fn small_steps_cause_few_switches() {
        let data = ElementSoupBuilder::new()
            .count(2000)
            .universe_side(50.0)
            .seed(31)
            .build();
        let mut s = GridMigrate::with_cell_side(data.elements(), 2.0);
        let mut cur = data.clone();
        let mut model = PlasticityModel::paper_calibrated(7); // 0.04 steps
        let batch = cur.displaced_batch(&model.sample_step(cur.len()));
        let cost = s.update_in_place(cur.elements_mut(), &batch).unwrap();
        // Expected switch rate ≈ 3 · (mean step / cell) ≈ 6 %; allow slack.
        let rate = cost.structural as f64 / 2000.0;
        assert!(rate < 0.15, "switch rate too high: {rate}");
        assert!(cost.absorbed > 1000);
    }

    #[test]
    fn large_steps_cause_many_switches() {
        let data = ElementSoupBuilder::new()
            .count(500)
            .universe_side(50.0)
            .seed(32)
            .build();
        let mut s = GridMigrate::with_cell_side(data.elements(), 0.5);
        let mut cur = data.clone();
        let mut model = PlasticityModel::with_sigma(2.0, 8);
        let batch = cur.displaced_batch(&model.sample_step(cur.len()));
        let cost = s.update_in_place(cur.elements_mut(), &batch).unwrap();
        assert!(
            cost.structural as f64 / 500.0 > 0.5,
            "big steps should switch cells: {cost:?}"
        );
    }
}
