//! Grace-window (lazy) updates — LUR-tree-style \[18\], QU-Trade/loose-box
//! family \[30\].
//!
//! §4.2: "instead of using a tight bounding box, objects are packed in a
//! looser grace window. With this, the index does not have to be updated if
//! an object only moves in the grace window, thereby reducing the number of
//! updates. Still updates are required frequently and, by introducing an
//! imprecision in the index structure, the burden is shifted to the query
//! execution where objects need to be tested for intersection with the
//! query."
//!
//! The shifted burden is directly measurable here: candidates per query grow
//! with the window, while `ShardApplyCost::absorbed` shows the saved maintenance.

use crate::strategy::write_each;
use simspatial_geom::{predicates, Aabb, Element, ElementId, Point3, QueryScratch, Shape};
use simspatial_index::{
    KnnIndex, KnnSink, LinearScan, RTree, RTreeConfig, RangeSink, ShardApplyCost, SpatialIndex,
};

/// An R-Tree whose entries carry grace windows.
#[derive(Debug)]
pub struct LazyGraceWindow {
    tree: RTree,
    /// The grace box currently indexed for each element.
    windows: Vec<Aabb>,
    margin: f32,
}

impl LazyGraceWindow {
    /// Default margin: liberal relative to the paper's 0.04 µm steps —
    /// roughly 12 steps of slack.
    pub const DEFAULT_MARGIN: f32 = 0.5;

    /// Builds with the default margin.
    pub fn build(elements: &[Element]) -> Self {
        Self::with_margin(elements, Self::DEFAULT_MARGIN)
    }

    /// Builds with an explicit grace margin (the E11 ablation sweeps this).
    pub fn with_margin(elements: &[Element], margin: f32) -> Self {
        assert!(
            margin > 0.0 && margin.is_finite(),
            "margin must be positive"
        );
        let windows: Vec<Aabb> = elements.iter().map(|e| e.aabb().inflate(margin)).collect();
        let tree = RTree::bulk_load_entries(
            windows
                .iter()
                .enumerate()
                .map(|(i, b)| (*b, i as ElementId))
                .collect(),
            RTreeConfig::default(),
        );
        Self {
            tree,
            windows,
            margin,
        }
    }

    /// The grace margin in force.
    pub fn margin(&self) -> f32 {
        self.margin
    }
}

impl SpatialIndex for LazyGraceWindow {
    fn name(&self) -> &'static str {
        "RTree/grace-window"
    }

    fn len(&self) -> usize {
        self.windows.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        _scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        // Grace boxes are supersets of true boxes ⇒ the candidate set is
        // complete; every candidate needs the exact test (the query burden).
        for id in self.tree.range_bbox(query) {
            if predicates::element_in_range(&data[id as usize], query) {
                sink.push(id);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes() + self.windows.capacity() * std::mem::size_of::<Aabb>()
    }

    /// Reinserts only the updated elements that escaped their grace
    /// window, under a fresh window; the rest are absorbed.
    fn update_in_place(
        &mut self,
        data: &mut [Element],
        updates: &[(ElementId, Shape)],
    ) -> Option<ShardApplyCost> {
        let mut cost = ShardApplyCost::default();
        write_each(data, updates, |id, _, e| {
            let bbox = e.aabb();
            let window = self.windows[id as usize];
            if window.contains(&bbox) {
                cost.absorbed += 1; // still inside the grace window
                return;
            }
            let fresh = bbox.inflate(self.margin);
            let updated = self.tree.update(id, &window, fresh);
            debug_assert!(updated, "grace entry {id} missing");
            self.windows[id as usize] = fresh;
            cost.structural += 1;
        });
        Some(cost)
    }
}

/// kNN scans the live geometry; the grace tree serves range queries only.
impl KnnIndex for LazyGraceWindow {
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
        crate::testutil::check_strategy_correctness(UpdateStrategyKind::LazyGraceWindow);
    }

    #[test]
    fn small_moves_are_absorbed() {
        let data = ElementSoupBuilder::new()
            .count(300)
            .universe_side(30.0)
            .seed(8)
            .build();
        let mut s = LazyGraceWindow::with_margin(data.elements(), 0.5);
        let mut model = PlasticityModel::with_sigma(0.01, 2); // tiny steps
        let batch = data.displaced_batch(&model.sample_step(data.len()));
        let cost = s
            .update_in_place(data.clone().elements_mut(), &batch)
            .unwrap();
        assert_eq!(cost.structural, 0, "tiny steps must be absorbed");
        assert_eq!(cost.absorbed, 300);
    }

    #[test]
    fn escapes_trigger_updates() {
        let data = ElementSoupBuilder::new()
            .count(100)
            .universe_side(30.0)
            .seed(9)
            .build();
        let mut s = LazyGraceWindow::with_margin(data.elements(), 0.1);
        let mut model = PlasticityModel::with_sigma(2.0, 3); // huge steps
        let batch = data.displaced_batch(&model.sample_step(data.len()));
        let cost = s
            .update_in_place(data.clone().elements_mut(), &batch)
            .unwrap();
        assert!(cost.structural > 50, "large steps must escape: {cost:?}");
    }

    #[test]
    #[should_panic(expected = "margin must be positive")]
    fn zero_margin_rejected() {
        let data = ElementSoupBuilder::new().count(10).seed(1).build();
        LazyGraceWindow::with_margin(data.elements(), 0.0);
    }
}
