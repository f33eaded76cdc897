//! Short-lived throwaway indexes \[7\].
//!
//! Dittrich et al.'s observation — embraced by the paper's conclusion that
//! the new index class will "trade off query execution time for
//! substantially faster index build time" — is to stop maintaining anything:
//! build the cheapest index that helps, use it for one step's queries,
//! throw it away. A uniform grid is the natural throwaway structure in
//! memory (O(n) build, no tree).

use crate::strategy::write_each;
use simspatial_geom::{Aabb, Element, ElementId, Point3, QueryScratch, Shape};
use simspatial_index::{
    GridConfig, KnnIndex, KnnSink, RangeSink, ShardApplyCost, SpatialIndex, UniformGrid,
};

/// A uniform grid rebuilt from scratch on every step.
#[derive(Debug)]
pub struct ThrowawayGrid {
    grid: UniformGrid,
}

impl ThrowawayGrid {
    /// Builds the first grid (auto resolution).
    pub fn build(elements: &[Element]) -> Self {
        Self {
            grid: UniformGrid::build(elements, GridConfig::auto(elements)),
        }
    }
}

impl SpatialIndex for ThrowawayGrid {
    fn name(&self) -> &'static str {
        "Grid/throwaway"
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

    /// Writes the batch and throws the grid away for a fresh one over
    /// `data` (an empty batch changes nothing, so it keeps the grid).
    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        if updates.is_empty() {
            return Some(ShardApplyCost::default());
        }
        write_each(data, updates, |_, _, _| {});
        self.grid = UniformGrid::build(data, GridConfig::auto(data));
        Some(ShardApplyCost {
            rebuilds: 1,
            ..Default::default()
        })
    }
}

impl KnnIndex for ThrowawayGrid {
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
    use crate::strategy::UpdateStrategyKind;

    #[test]
    fn stays_correct_across_steps() {
        crate::testutil::check_strategy_correctness(UpdateStrategyKind::ThrowawayGrid);
    }
}
