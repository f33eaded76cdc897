//! The update-strategy trait and factory.

use crate::RTreeDiscipline;
use simspatial_geom::{Element, ElementId, Shape};
use simspatial_index::{KnnIndex, ShardApplyCost, SpatialIndex};

/// An index-maintenance strategy over a moving dataset — an index that
/// also knows how to absorb movement.
///
/// Contract: after `apply_step(old, new)` the strategy answers every
/// [`SpatialIndex`] / [`KnnIndex`] query *exactly* against the `new`
/// element geometry, and its [`SpatialIndex::len`] is the dataset size
/// (every strategy here preserves correctness; what varies is where the
/// time goes). So a `Box<dyn UpdateStrategy>` serves wherever an index
/// does, a [`ShardedEngine`](simspatial_index::ShardedEngine) shard
/// included.
///
/// Maintenance must be a pure function of the strategy's state and its
/// arguments — no clocks, random numbers or hash-seeded iteration — so two
/// strategies fed the same steps answer byte for byte, emission order
/// included (the [`SpatialIndex::update_in_place`] contract, which is how a
/// served strategy takes write batches).
///
/// `Send` so a strategy can serve as a concurrent service's write path
/// (see the `service` module) — every strategy here is plain owned data.
pub trait UpdateStrategy: SpatialIndex + KnnIndex + Send {
    /// Reacts to one simulation step. `old` and `new` are the full element
    /// slices before and after the step (same ids, same order).
    fn apply_step(&mut self, old: &[Element], new: &[Element]) -> ShardApplyCost;
}

/// The in-place write of a strategy with no sparse path of its own: the
/// updates are written into `data` (out-of-range ids skipped), then the
/// whole step — old snapshot against the written slice — goes through
/// [`UpdateStrategy::apply_step`]. O(slice) per batch, whatever its size.
pub(crate) fn update_by_step(
    strategy: &mut impl UpdateStrategy,
    data: &mut [Element],
    updates: &[(ElementId, Shape)],
) -> ShardApplyCost {
    if updates.is_empty() {
        return ShardApplyCost::default();
    }
    let old: Vec<Element> = data.to_vec();
    for &(id, shape) in updates {
        if let Some(e) = data.get_mut(id as usize) {
            e.shape = shape;
        }
    }
    strategy.apply_step(&old, data)
}

/// Implements [`SpatialIndex::update_in_place`] as `Some` of
/// [`update_by_step`], inside a strategy's `SpatialIndex` impl.
macro_rules! update_in_place_by_step {
    () => {
        fn update_in_place(
            &mut self,
            data: &mut [simspatial_geom::Element],
            updates: &[(simspatial_geom::ElementId, simspatial_geom::Shape)],
        ) -> Option<simspatial_index::ShardApplyCost> {
            Some(crate::strategy::update_by_step(self, data, updates))
        }
    };
}
pub(crate) use update_in_place_by_step;

/// Factory enumeration of every strategy in the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategyKind {
    /// Delete + reinsert every moved entry in an R-Tree (the 130 s path).
    RTreeReinsert,
    /// Bottom-up R-Tree updates \[26\]: in-place patch when the leaf MBR
    /// still covers the moved entry.
    RTreeBottomUp,
    /// STR-rebuild the R-Tree every step (the 48 s path).
    RTreeRebuild,
    /// Grace windows \[18, 30\]: entries indexed with inflated boxes, only
    /// escapes trigger index work.
    LazyGraceWindow,
    /// Update buffering \[6\]: moved ids parked in a side buffer consulted by
    /// every query; flushed into the index past a threshold.
    BufferedUpdates,
    /// Short-lived throwaway index \[7\]: a cheap uniform grid rebuilt from
    /// scratch each step.
    ThrowawayGrid,
    /// Persistent uniform grid, only cell switches applied (§4.3).
    GridMigrate,
    /// No index at all: linear scan per query (§4.1's bar).
    NoIndexScan,
}

impl UpdateStrategyKind {
    /// Every strategy, in presentation order.
    pub const ALL: [UpdateStrategyKind; 8] = [
        UpdateStrategyKind::RTreeReinsert,
        UpdateStrategyKind::RTreeBottomUp,
        UpdateStrategyKind::RTreeRebuild,
        UpdateStrategyKind::LazyGraceWindow,
        UpdateStrategyKind::BufferedUpdates,
        UpdateStrategyKind::ThrowawayGrid,
        UpdateStrategyKind::GridMigrate,
        UpdateStrategyKind::NoIndexScan,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            UpdateStrategyKind::RTreeReinsert => "RTree/reinsert",
            UpdateStrategyKind::RTreeBottomUp => "RTree/bottom-up",
            UpdateStrategyKind::RTreeRebuild => "RTree/rebuild",
            UpdateStrategyKind::LazyGraceWindow => "RTree/grace-window",
            UpdateStrategyKind::BufferedUpdates => "RTree/buffered",
            UpdateStrategyKind::ThrowawayGrid => "Grid/throwaway",
            UpdateStrategyKind::GridMigrate => "Grid/migrate",
            UpdateStrategyKind::NoIndexScan => "LinearScan",
        }
    }

    /// Builds the strategy over the initial dataset.
    pub fn create(&self, elements: &[Element]) -> Box<dyn UpdateStrategy> {
        let rtree = |discipline| Box::new(crate::RTreeStrategy::build(elements, discipline));
        match self {
            UpdateStrategyKind::RTreeReinsert => rtree(RTreeDiscipline::Reinsert),
            UpdateStrategyKind::RTreeBottomUp => rtree(RTreeDiscipline::BottomUp),
            UpdateStrategyKind::RTreeRebuild => rtree(RTreeDiscipline::Rebuild),
            UpdateStrategyKind::LazyGraceWindow => {
                Box::new(crate::LazyGraceWindow::build(elements))
            }
            UpdateStrategyKind::BufferedUpdates => Box::new(crate::BufferedRTree::build(elements)),
            UpdateStrategyKind::ThrowawayGrid => Box::new(crate::ThrowawayGrid::build(elements)),
            UpdateStrategyKind::GridMigrate => Box::new(crate::GridMigrate::build(elements)),
            UpdateStrategyKind::NoIndexScan => Box::new(crate::NoIndexScan::build(elements)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = UpdateStrategyKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), UpdateStrategyKind::ALL.len());
    }
}
