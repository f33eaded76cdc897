//! The update-strategy trait and factory.

use simspatial_geom::{Aabb, Element, ElementId, Point3, QueryScratch, Shape};
use simspatial_index::{KnnIndex, KnnSink, LinearScan, RangeSink};

/// Cost accounting of one maintenance step (wall-clock is measured by the
/// caller around [`UpdateStrategy::apply_step`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCost {
    /// Structural modifications performed (entries reinserted, cells
    /// switched, nodes rebuilt — strategy-defined, 0 for a pure rebuild's
    /// per-element count is reported as `rebuilds`).
    pub structural_updates: u64,
    /// Full rebuilds performed this step.
    pub rebuilds: u64,
    /// Updates absorbed without touching the structure (grace hits, same
    /// cell, buffered).
    pub absorbed: u64,
}

/// An index-maintenance strategy over a moving dataset.
///
/// Contract: after `apply_step(old, new)` the strategy answers `range`
/// queries *exactly* against the `new` element geometry (every strategy
/// here preserves correctness; what varies is where the time goes).
///
/// `Send` so a strategy can serve as a concurrent service's write path
/// (see [`UpdateStrategy::update_batch`] and the `service` module) — every
/// strategy here is plain owned data.
pub trait UpdateStrategy: Send {
    /// Display name for the harness.
    fn name(&self) -> &'static str;

    /// Reacts to one simulation step. `old` and `new` are the full element
    /// slices before and after the step (same ids, same order).
    fn apply_step(&mut self, old: &[Element], new: &[Element]) -> StepCost;

    /// Applies a sparse coalesced write batch: each `(id, shape)` entry
    /// replaces that element's geometry in `data` (the live slice, which
    /// follows the `id == position` convention; out-of-range ids are
    /// skipped), then brings the maintained structure in sync. Duplicate
    /// ids resolve last-write-wins, matching sequential application.
    ///
    /// The default snapshots the old geometry and reuses
    /// [`UpdateStrategy::apply_step`], so every strategy supports the
    /// service's batched-update admission path unchanged; strategies with
    /// a cheaper sparse path can override.
    fn update_batch(&mut self, data: &mut [Element], updates: &[(ElementId, Shape)]) -> StepCost {
        if updates.is_empty() {
            return StepCost::default();
        }
        let old: Vec<Element> = data.to_vec();
        for &(id, shape) in updates {
            if let Some(e) = data.get_mut(id as usize) {
                e.shape = shape;
            }
        }
        self.apply_step(&old, data)
    }

    /// Range query against current geometry.
    fn range(&self, data: &[Element], query: &Aabb) -> Vec<ElementId>;

    /// Sink-based range query against current geometry — the batch path
    /// query harnesses drive with a reused scratch. The default adapts
    /// [`UpdateStrategy::range`]; strategies backed by a sink-capable index
    /// override it to skip the intermediate vector.
    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        let _ = scratch;
        for id in self.range(data, query) {
            sink.push(id);
        }
    }

    /// Sink-based kNN against current geometry: emits the `k` nearest
    /// elements to `p` in ascending `(distance, id)` order.
    ///
    /// The default computes the exact answer with a linear scan over the
    /// live `data` slice — correct for *every* strategy, since the scan
    /// needs no maintained structure. Strategies backed by a kNN-capable
    /// index (grids, R-Trees) override it to forward, riding their
    /// structure's pruning instead.
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        LinearScan::build(data).knn_into(data, p, k, scratch, sink);
    }

    /// Approximate bytes held by the strategy's structures.
    fn memory_bytes(&self) -> usize;

    /// Applies a membership change in place — the strategy-side mirror of
    /// [`SpatialIndex::splice`](simspatial_index::SpatialIndex::splice),
    /// same arguments and contract: drop `removed` (old ids), renumber the
    /// rest through the monotone `remap`, add `inserted` (new ids). The
    /// default declines (`false`, structure untouched), and the caller
    /// rebuilds the strategy over the new dataset instead.
    fn splice(&mut self, removed: &[Element], remap: &[ElementId], inserted: &[Element]) -> bool {
        let _ = (removed, remap, inserted);
        false
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
        match self {
            UpdateStrategyKind::RTreeReinsert => Box::new(crate::RTreeReinsert::build(elements)),
            UpdateStrategyKind::RTreeBottomUp => Box::new(crate::RTreeBottomUp::build(elements)),
            UpdateStrategyKind::RTreeRebuild => Box::new(crate::RTreeRebuild::build(elements)),
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
