//! The no-index strategy: maintain nothing, scan everything.
//!
//! §4.1: "using no index, i.e., a linear scan over the dataset, may be
//! faster" when too few queries amortise the maintenance. Experiment E13
//! finds that crossover.

use crate::strategy::UpdateStrategy;
use simspatial_geom::{Aabb, Element, Point3, QueryScratch};
use simspatial_index::{KnnIndex, KnnSink, LinearScan, RangeSink, ShardApplyCost, SpatialIndex};

/// Zero-maintenance linear scan.
#[derive(Debug)]
pub struct NoIndexScan {
    scan: LinearScan,
}

impl NoIndexScan {
    /// "Builds" the strategy (nothing to build).
    pub fn build(elements: &[Element]) -> Self {
        Self {
            scan: LinearScan::build(elements),
        }
    }
}

impl UpdateStrategy for NoIndexScan {
    fn apply_step(&mut self, _old: &[Element], new: &[Element]) -> ShardApplyCost {
        self.scan = LinearScan::build(new);
        ShardApplyCost {
            absorbed: new.len() as u64,
            ..Default::default()
        }
    }
}

impl SpatialIndex for NoIndexScan {
    fn name(&self) -> &'static str {
        "LinearScan"
    }

    fn len(&self) -> usize {
        self.scan.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.scan.range_into(data, query, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl KnnIndex for NoIndexScan {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        self.scan.knn_into(data, p, k, scratch, sink);
    }
}

#[cfg(test)]
mod tests {
    use crate::strategy::UpdateStrategyKind;

    #[test]
    fn stays_correct_across_steps() {
        crate::testutil::check_strategy_correctness(UpdateStrategyKind::NoIndexScan);
    }
}
