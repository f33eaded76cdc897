//! The three plain R-Tree maintenance disciplines of §4.1, one type.

use crate::strategy::write_each;
use simspatial_geom::{Aabb, Element, ElementId, Point3, QueryScratch, Shape};
use simspatial_index::{
    KnnIndex, KnnSink, RTree, RTreeConfig, RangeSink, ShardApplyCost, SpatialIndex,
};

/// How an [`RTreeStrategy`] absorbs a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RTreeDiscipline {
    /// Delete + reinsert every moved entry — the strategy the paper
    /// measured at 130 s/step on its neural-plasticity run.
    Reinsert,
    /// Bottom-up updates \[26\]: entries whose new box still fits the leaf
    /// MBR are patched in place.
    BottomUp,
    /// Full STR rebuild each step — the paper's 48 s alternative, which
    /// wins once more than ~38 % of the dataset moves.
    Rebuild,
}

/// An R-Tree maintained by one plain [`RTreeDiscipline`].
#[derive(Debug)]
pub struct RTreeStrategy {
    tree: RTree,
    discipline: RTreeDiscipline,
}

impl RTreeStrategy {
    /// Bulk-loads the initial tree.
    pub fn build(elements: &[Element], discipline: RTreeDiscipline) -> Self {
        Self {
            tree: RTree::bulk_load(elements, RTreeConfig::default()),
            discipline,
        }
    }
}

impl SpatialIndex for RTreeStrategy {
    fn name(&self) -> &'static str {
        match self.discipline {
            RTreeDiscipline::Reinsert => "RTree/reinsert",
            RTreeDiscipline::BottomUp => "RTree/bottom-up",
            RTreeDiscipline::Rebuild => "RTree/rebuild",
        }
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.tree.range_exact_into(data, query, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }

    /// `Rebuild` writes the batch and STR-rebuilds over `data`; the other
    /// disciplines move each entry whose box changed, O(K) for K updates.
    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        let mut cost = ShardApplyCost::default();
        if self.discipline == RTreeDiscipline::Rebuild {
            if !updates.is_empty() {
                write_each(data, updates, |_, _, _| {});
                self.tree.rebuild(data);
                cost.rebuilds = 1;
            }
            return Some(cost);
        }
        let bottom_up = self.discipline == RTreeDiscipline::BottomUp;
        write_each(data, updates, |id, ob, e| {
            let nb = e.aabb();
            if ob == nb {
                cost.absorbed += 1;
                return;
            }
            let updated = if bottom_up {
                self.tree.update_bottom_up(id, &ob, nb)
            } else {
                self.tree.update(id, &ob, nb)
            };
            debug_assert!(updated, "entry {id} missing from tree");
            cost.structural += 1;
        });
        Some(cost)
    }
}

impl KnnIndex for RTreeStrategy {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        self.tree.knn_into(data, p, k, scratch, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::UpdateStrategyKind;
    use crate::testutil::check_strategy_correctness;
    use simspatial_datagen::{ElementSoupBuilder, PlasticityModel};

    #[test]
    fn reinsert_stays_correct() {
        check_strategy_correctness(UpdateStrategyKind::RTreeReinsert);
    }

    #[test]
    fn bottom_up_stays_correct() {
        check_strategy_correctness(UpdateStrategyKind::RTreeBottomUp);
    }

    #[test]
    fn rebuild_stays_correct() {
        check_strategy_correctness(UpdateStrategyKind::RTreeRebuild);
    }

    #[test]
    fn costs_reflect_disciplines() {
        let data = ElementSoupBuilder::new()
            .count(200)
            .universe_side(20.0)
            .seed(3)
            .build();
        let mut model = PlasticityModel::with_sigma(0.02, 5);
        let batch = data.displaced_batch(&model.sample_step(data.len()));
        let mut re = RTreeStrategy::build(data.elements(), RTreeDiscipline::Reinsert);
        let c = re
            .update_in_place(data.clone().elements_mut(), &batch)
            .unwrap();
        assert_eq!(c.structural + c.absorbed, 200);
        assert_eq!(c.rebuilds, 0);

        let mut rb = RTreeStrategy::build(data.elements(), RTreeDiscipline::Rebuild);
        let c = rb
            .update_in_place(data.clone().elements_mut(), &batch)
            .unwrap();
        assert_eq!(c.rebuilds, 1);
        assert_eq!(c.structural, 0);
    }
}
