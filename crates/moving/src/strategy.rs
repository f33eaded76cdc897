//! The update-strategy trait and factory.

use crate::RTreeDiscipline;
use simspatial_geom::{Aabb, Element, ElementId, Shape};
use simspatial_index::{KnnIndex, SpatialIndex};

/// An index-maintenance strategy over a moving dataset: an index that
/// absorbs movement through its one write method,
/// [`SpatialIndex::update_in_place`], which every strategy here implements
/// and never declines. After a write the strategy answers every query
/// exactly against the written `data` (what varies is where the time
/// goes), and the reported cost counts the batch, not the dataset. So a
/// `Box<dyn UpdateStrategy>` serves wherever an index does, a
/// [`ShardedEngine`](simspatial_index::ShardedEngine) shard included.
///
/// Maintenance must be a pure function of the strategy's state and its
/// arguments — no clocks, random numbers or hash-seeded iteration — so two
/// strategies fed the same batches answer byte for byte, emission order
/// included (the [`SpatialIndex::update_in_place`] contract).
///
/// A method-free name for `SpatialIndex + KnnIndex + Send`, which every
/// such type has. `Send` so a strategy can serve as a concurrent service's
/// write path (see the `service` module).
pub trait UpdateStrategy: SpatialIndex + KnnIndex + Send {}

impl<T: SpatialIndex + KnnIndex + Send + ?Sized> UpdateStrategy for T {}

/// Writes each update into `data` in batch order, skipping out-of-range
/// ids, and hands `moved` the id, the element's box before the write and
/// the written element: the loop every strategy's `update_in_place` runs.
pub(crate) fn write_each(
    data: &mut [Element],
    updates: &[(ElementId, Shape)],
    mut moved: impl FnMut(ElementId, Aabb, &Element),
) {
    for &(id, shape) in updates {
        if let Some(e) = data.get_mut(id as usize) {
            let old = e.aabb();
            e.shape = shape;
            moved(id, old, e);
        }
    }
}

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
