//! Buffered updates \[6\].
//!
//! §4.2: "Buffering the updates to reduce operations on the index similarly
//! shifts the burden to query execution: when computing the query result,
//! buffer and index need to be checked, thereby increasing the overhead."
//!
//! Moved elements are parked in a dirty set keyed by the (stale) box the
//! index still holds for them; queries consult the index for clean elements
//! and scan the dirty set, and once the dirty set passes a threshold it is
//! flushed into the index wholesale.

use crate::strategy::UpdateStrategy;
use simspatial_geom::{predicates, Aabb, Element, ElementId, Point3, QueryScratch};
use simspatial_index::{
    KnnIndex, KnnSink, LinearScan, RTree, RTreeConfig, RangeSink, ShardApplyCost, SpatialIndex,
};
use std::collections::BTreeMap;

/// An R-Tree with an update buffer.
#[derive(Debug)]
pub struct BufferedRTree {
    tree: RTree,
    /// Dirty elements: id → the stale box still indexed for them. Ordered,
    /// so buffered hits and flushes go in ascending id order.
    dirty: BTreeMap<ElementId, Aabb>,
    /// Flush once `dirty.len() > flush_fraction · n`.
    flush_fraction: f32,
}

impl BufferedRTree {
    /// Default flush threshold: 10 % of the dataset.
    pub const DEFAULT_FLUSH_FRACTION: f32 = 0.10;

    /// Builds with the default flush threshold.
    pub fn build(elements: &[Element]) -> Self {
        Self::with_flush_fraction(elements, Self::DEFAULT_FLUSH_FRACTION)
    }

    /// Builds with an explicit flush threshold in `(0, 1]`.
    pub fn with_flush_fraction(elements: &[Element], flush_fraction: f32) -> Self {
        assert!(
            flush_fraction > 0.0 && flush_fraction <= 1.0,
            "flush fraction must be in (0, 1]"
        );
        Self {
            tree: RTree::bulk_load(elements, RTreeConfig::default()),
            dirty: BTreeMap::new(),
            flush_fraction,
        }
    }

    /// Elements currently buffered.
    pub fn buffered(&self) -> usize {
        self.dirty.len()
    }

    fn flush(&mut self, new: &[Element]) -> u64 {
        let mut applied = 0u64;
        for (id, stale) in std::mem::take(&mut self.dirty) {
            let fresh = new[id as usize].aabb();
            let updated = self.tree.update(id, &stale, fresh);
            debug_assert!(updated, "buffered entry {id} missing");
            applied += 1;
        }
        applied
    }
}

impl UpdateStrategy for BufferedRTree {
    fn apply_step(&mut self, old: &[Element], new: &[Element]) -> ShardApplyCost {
        let mut cost = ShardApplyCost::default();
        for (o, n) in old.iter().zip(new.iter()) {
            let (ob, nb) = (o.aabb(), n.aabb());
            if ob == nb {
                cost.absorbed += 1;
                continue;
            }
            // First move records the box the index still holds; subsequent
            // moves keep that original stale box.
            self.dirty.entry(o.id).or_insert(ob);
            cost.absorbed += 1;
        }
        let threshold = (self.flush_fraction * self.tree.len() as f32).ceil() as usize;
        if self.dirty.len() > threshold {
            cost.structural += self.flush(new);
        }
        cost
    }
}

impl SpatialIndex for BufferedRTree {
    fn name(&self) -> &'static str {
        "RTree/buffered"
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        _scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        // Index side: candidates by (possibly stale) stored boxes. Dirty
        // hits are dropped here — their stale position is meaningless.
        for id in self.tree.range_bbox(query) {
            if !self.dirty.contains_key(&id)
                && predicates::element_in_range(&data[id as usize], query)
            {
                sink.push(id);
            }
        }
        // Buffer side: every dirty element is tested against live geometry.
        for &id in self.dirty.keys() {
            if predicates::element_in_range(&data[id as usize], query) {
                sink.push(id);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
            + self.dirty.len() * (std::mem::size_of::<ElementId>() + std::mem::size_of::<Aabb>())
    }
}

/// kNN ignores the tree: stale entries make its pruning unsound, so probes
/// scan the live geometry.
impl KnnIndex for BufferedRTree {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::UpdateStrategyKind;
    use simspatial_datagen::{ElementSoupBuilder, PlasticityModel};

    #[test]
    fn stays_correct_across_steps() {
        crate::testutil::check_strategy_correctness(UpdateStrategyKind::BufferedUpdates);
    }

    #[test]
    fn buffer_fills_then_flushes() {
        let data = ElementSoupBuilder::new()
            .count(200)
            .universe_side(30.0)
            .seed(4)
            .build();
        let mut s = BufferedRTree::with_flush_fraction(data.elements(), 0.5);
        let mut cur = data.clone();
        let mut model = PlasticityModel::with_sigma(0.05, 6);

        // Step 1: every element moves → buffer holds all, above 50 % → flush.
        let old = cur.elements().to_vec();
        for (id, d) in model.sample_step(cur.len()).iter().enumerate() {
            cur.displace(id as u32, *d);
        }
        let cost = s.apply_step(&old, cur.elements());
        assert_eq!(cost.structural, 200, "full flush expected");
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn queries_see_buffered_elements() {
        let data = ElementSoupBuilder::new()
            .count(50)
            .universe_side(20.0)
            .seed(5)
            .build();
        // Huge threshold: never flushes.
        let mut s = BufferedRTree::with_flush_fraction(data.elements(), 1.0);
        let mut cur = data.clone();
        let old = cur.elements().to_vec();
        // Teleport element 0 far away.
        cur.displace(0, simspatial_geom::Vec3::new(15.0, 0.0, 0.0));
        s.apply_step(&old, cur.elements());
        assert!(s.buffered() >= 1);
        // Query at the new location must see it; at the old location not.
        let new_box = cur.elements()[0].aabb().inflate(0.01);
        assert!(s.range(cur.elements(), &new_box).contains(&0));
        let old_box = old[0].aabb().inflate(0.01);
        let hits = s.range(cur.elements(), &old_box);
        assert!(!hits.contains(&0) || new_box.intersects(&old_box));
    }
}
