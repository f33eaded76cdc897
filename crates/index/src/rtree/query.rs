//! Instrumented R-Tree queries: range and kNN.
//!
//! Leaf entries live in [`SoaAabbs`] slabs, so the element-level bbox
//! filter of every query below is a batched streaming pass over contiguous
//! coordinate arrays (the Figure 3 cost centre); only filter survivors
//! touch the live `data` slice for exact refinement.

use super::RTree;
use crate::traits::{KnnIndex, KnnSink, RangeSink, SpatialIndex};
use crate::util::{knn_reach, KnnHeap, MinQueue};
use simspatial_geom::scratch::with_scratch;
use simspatial_geom::{predicates, stats, Aabb, Element, ElementId, Point3, QueryScratch};

impl RTree {
    /// Range query on stored bounding boxes only (no exact refinement).
    ///
    /// Useful when the caller owns refinement, and for structures whose
    /// entries *are* boxes. Instrumented exactly like [`RTree::range`].
    pub fn range_bbox(&self, query: &Aabb) -> Vec<ElementId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let n = &self.nodes[idx];
            if n.is_leaf() {
                stats::record_element_tests(n.entries.len() as u64);
                n.entries.intersect_into(query, &mut out);
            } else {
                stats::record_node_visit();
                for &c in &n.children {
                    if stats::tree_test(|| self.nodes[c].mbr.intersects(query)) {
                        stack.push(c);
                    }
                }
            }
        }
        out
    }

    /// Tree-only traversal: descends every internal node intersecting
    /// `query` but performs **no leaf-entry tests**, returning the number of
    /// leaves reached. Isolates the pure tree-structure cost of a query —
    /// the differential measurement behind the Figure 3 reproduction.
    pub fn probe_tree(&self, query: &Aabb) -> usize {
        let mut leaves = 0usize;
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let n = &self.nodes[idx];
            if n.is_leaf() {
                leaves += 1;
            } else {
                stats::record_node_visit();
                for &c in &n.children {
                    if stats::tree_test(|| self.nodes[c].mbr.intersects(query)) {
                        stack.push(c);
                    }
                }
            }
        }
        leaves
    }

    /// Instrumented filter + refine range query (see [`SpatialIndex::range`]).
    pub fn range_exact(&self, data: &[Element], query: &Aabb) -> Vec<ElementId> {
        with_scratch(|scratch| {
            let mut out = Vec::new();
            self.range_exact_into(data, query, scratch, &mut out);
            out
        })
    }

    /// Sink-based core of [`RTree::range_exact`]: the traversal stack lives
    /// in `scratch.frontier`, leaf candidates in `scratch.candidates`, and
    /// confirmed hits stream into `sink` — no per-query allocation.
    pub fn range_exact_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        scratch.frontier.clear();
        scratch.frontier.push(self.root as u32);
        while let Some(idx) = scratch.frontier.pop() {
            let n = &self.nodes[idx as usize];
            if n.is_leaf() {
                // Batched filter on the stored boxes...
                stats::record_element_tests(n.entries.len() as u64);
                scratch.candidates.clear();
                n.entries.intersect_into(query, &mut scratch.candidates);
                // ...then scalar refinement on live geometry.
                stats::record_element_tests(scratch.candidates.len() as u64);
                for &id in &scratch.candidates {
                    if data[id as usize].shape.intersects_aabb(query) {
                        sink.push(id);
                    }
                }
            } else {
                stats::record_node_visit();
                for &c in &n.children {
                    if stats::tree_test(|| self.nodes[c].mbr.intersects(query)) {
                        scratch.frontier.push(c as u32);
                    }
                }
            }
        }
    }
}

impl SpatialIndex for RTree {
    fn name(&self) -> &'static str {
        "R-Tree"
    }

    fn len(&self) -> usize {
        self.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        self.range_exact_into(data, query, scratch, sink);
    }

    fn memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl KnnIndex for RTree {
    /// Best-first kNN (Hjaltason & Samet) with deferred refinement: nodes
    /// pop from a min-queue in ascending MBR-`MINDIST` order; a popped
    /// leaf's entries run the **batched** box `MINDIST` kernel
    /// ([`simspatial_geom::SoaAabbs::min_dist2_into`]) and only entries
    /// the heap admits (`KnnHeap::may_admit`) pay the exact
    /// surface-distance test. Search stops once the heap rejects the
    /// nearest pending node. Queue, heap and batched distances all
    /// live in the caller's scratch — no allocation per probe.
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        if k == 0 || self.is_empty() {
            return;
        }
        let mut best = KnnHeap::with_reach(&mut scratch.knn_best, k, knn_reach(p, &self.bounds()));
        let mut queue = MinQueue::new(&mut scratch.knn_queue);
        queue.push(0.0, self.root as u32);
        let exact = |id: ElementId| predicates::element_distance(&data[id as usize], p);
        while let Some(node) = queue.pop_admitted(&best) {
            let n = &self.nodes[node as usize];
            if n.is_leaf() {
                stats::record_element_tests(n.entries.len() as u64);
                stats::record_lower_bound_evals(n.entries.len() as u64);
                n.entries.min_dist2_into(p, &mut scratch.dists);
                best.refine(&scratch.dists, n.entries.ids(), exact);
            } else {
                stats::record_node_visit();
                for &c in &n.children {
                    let lb2 = stats::tree_test(|| self.nodes[c].mbr.min_distance2(p));
                    if best.may_admit(lb2) {
                        queue.push(lb2, c as u32);
                    }
                }
            }
        }
        best.emit(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearScan, RTreeConfig};
    use simspatial_geom::{Shape, Sphere};

    fn scattered(n: u32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 10.0;
                let y = ((h >> 10) % 997) as f32 / 10.0;
                let z = ((h >> 20) % 997) as f32 / 10.0;
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), 0.4)))
            })
            .collect()
    }

    fn built(data: &[Element]) -> RTree {
        let mut t = RTree::new(RTreeConfig::default());
        for e in data {
            t.insert(e.id, e.aabb());
        }
        t
    }

    #[test]
    fn range_matches_linear_scan() {
        let data = scattered(2000);
        let t = built(&data);
        let scan = LinearScan::build(&data);
        for i in 0..20 {
            let c = Point3::new((i * 5) as f32, (i * 4) as f32, (i * 3) as f32);
            let q = Aabb::new(c, Point3::new(c.x + 12.0, c.y + 9.0, c.z + 11.0));
            let mut a = t.range(&data, &q);
            let mut b = scan.range(&data, &q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {i} mismatch");
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        let data = scattered(1500);
        let t = built(&data);
        let scan = LinearScan::build(&data);
        for i in 0..10 {
            let p = Point3::new((i * 9) as f32, (i * 7) as f32, (i * 5) as f32);
            let a = t.knn(&data, &p, 8);
            let b = scan.knn(&data, &p, 8);
            assert_eq!(a.len(), 8);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(
                    (x.1 - y.1).abs() < 1e-4,
                    "distance mismatch at {p:?}: {:?} vs {:?}",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn knn_deferred_refinement_skips_exact_tests() {
        // With deferred refinement, far leaves' entries should enter and
        // leave the queue on their lower bound alone: exact element tests
        // stay well below the brute-force count.
        let data = scattered(3000);
        let t = RTree::bulk_load(&data, RTreeConfig::default());
        stats::reset();
        t.knn(&data, &Point3::new(50.0, 50.0, 50.0), 5);
        let s = stats::snapshot();
        assert!(s.element_tests > 0);
        assert!(
            s.element_tests < 2 * data.len() as u64,
            "deferred kNN should not exactify everything: {}",
            s.element_tests
        );
    }

    #[test]
    fn instrumentation_counts_tree_and_element_tests() {
        let data = scattered(3000);
        let t = built(&data);
        stats::reset();
        let q = Aabb::new(Point3::new(10.0, 10.0, 10.0), Point3::new(30.0, 30.0, 30.0));
        t.range(&data, &q);
        let s = stats::snapshot();
        assert!(s.tree_tests > 0, "tree traversal must be counted");
        assert!(s.element_tests > 0);
        assert!(s.nodes_visited > 0);
    }

    #[test]
    fn knn_k_exceeds_len() {
        let data = scattered(5);
        let t = built(&data);
        assert_eq!(t.knn(&data, &Point3::ORIGIN, 50).len(), 5);
    }

    #[test]
    fn range_bbox_superset_of_exact() {
        let data = scattered(1000);
        let t = built(&data);
        let q = Aabb::new(Point3::new(20.0, 20.0, 20.0), Point3::new(40.0, 40.0, 40.0));
        let bbox: std::collections::HashSet<_> = t.range_bbox(&q).into_iter().collect();
        let exact = t.range(&data, &q);
        for id in exact {
            assert!(bbox.contains(&id));
        }
    }
}
