//! The three plain R-Tree maintenance disciplines of §4.1, one type.

use crate::strategy::UpdateStrategy;
use simspatial_geom::{Aabb, Element, Point3, QueryScratch};
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

impl UpdateStrategy for RTreeStrategy {
    fn apply_step(&mut self, old: &[Element], new: &[Element]) -> ShardApplyCost {
        if self.discipline == RTreeDiscipline::Rebuild {
            self.tree.rebuild(new);
            return ShardApplyCost {
                rebuilds: 1,
                ..Default::default()
            };
        }
        let mut cost = ShardApplyCost::default();
        for (o, n) in old.iter().zip(new.iter()) {
            debug_assert_eq!(o.id, n.id);
            let (ob, nb) = (o.aabb(), n.aabb());
            if ob == nb {
                cost.absorbed += 1;
                continue;
            }
            let updated = if self.discipline == RTreeDiscipline::BottomUp {
                self.tree.update_bottom_up(o.id, &ob, nb)
            } else {
                self.tree.update(o.id, &ob, nb)
            };
            debug_assert!(updated, "entry {} missing from tree", o.id);
            cost.structural += 1;
        }
        cost
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
        let mut moved = data.clone();
        let mut model = PlasticityModel::with_sigma(0.02, 5);
        let moves = model.sample_step(moved.len());
        for (id, d) in moves.iter().enumerate() {
            moved.displace(id as u32, *d);
        }
        let mut re = RTreeStrategy::build(data.elements(), RTreeDiscipline::Reinsert);
        let c = re.apply_step(data.elements(), moved.elements());
        assert_eq!(c.structural + c.absorbed, 200);
        assert_eq!(c.rebuilds, 0);

        let mut rb = RTreeStrategy::build(data.elements(), RTreeDiscipline::Rebuild);
        let c = rb.apply_step(data.elements(), moved.elements());
        assert_eq!(c.rebuilds, 1);
        assert_eq!(c.structural, 0);
    }
}
