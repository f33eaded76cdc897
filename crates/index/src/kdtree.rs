//! KD-Tree: the classic point access method (§3.2, \[4\]).
//!
//! Point access methods index element *centroids*. The paper notes that
//! supporting volumetric objects then requires either replication or looser
//! partitions; we take the third standard route — queries are inflated by
//! the largest element half-extent recorded at build time, and every
//! candidate is refined against exact geometry. Correct, at the price of
//! extra candidate tests when elements are large (exactly the trade-off the
//! paper describes).

use crate::traits::{KnnIndex, KnnSink, RangeSink, SpatialIndex};
use crate::util::{knn_reach, KnnHeap};
use simspatial_geom::{predicates, stats, Aabb, Element, ElementId, Point3, QueryScratch};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct KdNode {
    point: Point3,
    id: ElementId,
    axis: u8,
    left: u32,
    right: u32,
}

/// A balanced, bulk-built KD-Tree over element centroids.
///
/// Rebuild-only (no incremental updates): the paper's §4.2 survey places
/// KD-Trees with the bulkloaded structures, and its massive-update
/// experiments rebuild them wholesale.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    root: u32,
    max_half_extent: f32,
    /// Union of the element boxes, for the kNN heap's reach.
    envelope: Aabb,
}

impl KdTree {
    /// Builds the tree by recursive median partitioning (O(n log n)).
    pub fn build(elements: &[Element]) -> Self {
        let mut items: Vec<(Point3, ElementId)> =
            elements.iter().map(|e| (e.center(), e.id)).collect();
        let max_half_extent = elements
            .iter()
            .map(|e| {
                let ext = e.aabb().extent();
                ext.x.max(ext.y).max(ext.z) * 0.5
            })
            .fold(0.0f32, f32::max);
        let mut nodes = Vec::with_capacity(items.len());
        let n = items.len();
        let root = Self::build_rec(&mut items[..], 0, &mut nodes);
        debug_assert_eq!(nodes.len(), n);
        Self {
            nodes,
            root,
            max_half_extent,
            envelope: Aabb::union_all(elements.iter().map(Element::aabb)),
        }
    }

    fn build_rec(items: &mut [(Point3, ElementId)], depth: u8, nodes: &mut Vec<KdNode>) -> u32 {
        if items.is_empty() {
            return NIL;
        }
        let axis = depth % 3;
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, |a, b| {
            a.0.axis(axis as usize).total_cmp(&b.0.axis(axis as usize))
        });
        let (point, id) = items[mid];
        let slot = nodes.len() as u32;
        nodes.push(KdNode {
            point,
            id,
            axis,
            left: NIL,
            right: NIL,
        });
        let (lo, rest) = items.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = Self::build_rec(lo, depth + 1, nodes);
        let right = Self::build_rec(hi, depth + 1, nodes);
        nodes[slot as usize].left = left;
        nodes[slot as usize].right = right;
        slot
    }

    /// The inflation bound applied to range queries.
    pub fn max_half_extent(&self) -> f32 {
        self.max_half_extent
    }

    fn range_rec(
        &self,
        node: u32,
        probe: &Aabb,
        query: &Aabb,
        data: &[Element],
        out: &mut dyn RangeSink,
    ) {
        if node == NIL {
            return;
        }
        let n = &self.nodes[node as usize];
        // Centroid inside the inflated probe → candidate, refine exactly.
        if stats::element_test(|| probe.contains_point(&n.point))
            && predicates::element_in_range(&data[n.id as usize], query)
        {
            out.push(n.id);
        }
        let axis = n.axis as usize;
        let v = n.point.axis(axis);
        // Plane comparisons are the KD-Tree's "tree structure" cost.
        if stats::tree_test(|| probe.min.axis(axis) <= v) {
            self.range_rec(n.left, probe, query, data, out);
        }
        if stats::tree_test(|| probe.max.axis(axis) >= v) {
            self.range_rec(n.right, probe, query, data, out);
        }
    }

    fn knn_rec(&self, node: u32, p: &Point3, data: &[Element], best: &mut KnnHeap) {
        if node == NIL {
            return;
        }
        let n = &self.nodes[node as usize];
        let d = predicates::element_distance(&data[n.id as usize], p);
        best.consider(n.id, d);
        let axis = n.axis as usize;
        let delta = p.axis(axis) - n.point.axis(axis);
        let (near, far) = if delta <= 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.knn_rec(near, p, data, best);
        // The far half-space can hold a closer element surface when the
        // heap admits the plane distance less the surface slack.
        let gap = (delta.abs() - self.max_half_extent).max(0.0);
        if stats::tree_test(|| best.may_admit(gap * gap)) {
            self.knn_rec(far, p, data, best);
        }
    }
}

impl SpatialIndex for KdTree {
    fn name(&self) -> &'static str {
        "KD-Tree"
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        _scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        let probe = query.inflate(self.max_half_extent);
        self.range_rec(self.root, &probe, query, data, sink);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.capacity() * std::mem::size_of::<KdNode>()
    }
}

impl KnnIndex for KdTree {
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        if k == 0 || self.nodes.is_empty() {
            return;
        }
        let mut best = KnnHeap::with_reach(&mut scratch.knn_best, k, knn_reach(p, &self.envelope));
        self.knn_rec(self.root, p, data, &mut best);
        best.emit(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScan;
    use simspatial_geom::{Shape, Sphere};

    fn scattered(n: u32, r: f32) -> Vec<Element> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 997) as f32 / 10.0;
                let y = ((h >> 10) % 997) as f32 / 10.0;
                let z = ((h >> 20) % 997) as f32 / 10.0;
                Element::new(i, Shape::Sphere(Sphere::new(Point3::new(x, y, z), r)))
            })
            .collect()
    }

    #[test]
    fn range_matches_scan() {
        let data = scattered(2500, 0.5);
        let t = KdTree::build(&data);
        assert_eq!(t.len(), 2500);
        let scan = LinearScan::build(&data);
        for i in 0..15 {
            let c = Point3::new((i * 6) as f32, (i * 5) as f32, (i * 4) as f32);
            let q = Aabb::new(c, Point3::new(c.x + 12.0, c.y + 10.0, c.z + 9.0));
            let mut a = t.range(&data, &q);
            let mut b = scan.range(&data, &q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {i}");
        }
    }

    #[test]
    fn knn_matches_scan() {
        let data = scattered(2000, 0.4);
        let t = KdTree::build(&data);
        let scan = LinearScan::build(&data);
        for i in 0..10 {
            let p = Point3::new((i * 9) as f32, (i * 8) as f32, (i * 7) as f32);
            let a = t.knn(&data, &p, 5);
            let b = scan.knn(&data, &p, 5);
            assert_eq!(a.len(), 5);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.1 - y.1).abs() < 1e-4, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn large_elements_still_found() {
        // An element whose centroid is far outside the query but whose body
        // intersects it must be returned (the inflation path).
        let data = vec![Element::new(
            0,
            Shape::Sphere(Sphere::new(Point3::new(10.0, 0.0, 0.0), 5.0)),
        )];
        let t = KdTree::build(&data);
        let q = Aabb::new(Point3::new(4.0, -1.0, -1.0), Point3::new(6.0, 1.0, 1.0));
        assert_eq!(t.range(&data, &q), vec![0]);
    }

    #[test]
    fn empty_and_single() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert!(t.range(&[], &Aabb::from_point(Point3::ORIGIN)).is_empty());
        assert!(t.knn(&[], &Point3::ORIGIN, 4).is_empty());

        let one = scattered(1, 0.2);
        let t = KdTree::build(&one);
        assert_eq!(t.knn(&one, &Point3::ORIGIN, 4).len(), 1);
    }

    #[test]
    fn duplicate_points_supported() {
        let data: Vec<Element> = (0..32)
            .map(|i| {
                Element::new(
                    i,
                    Shape::Sphere(Sphere::new(Point3::new(1.0, 1.0, 1.0), 0.1)),
                )
            })
            .collect();
        let t = KdTree::build(&data);
        let q = Aabb::new(Point3::ORIGIN, Point3::new(2.0, 2.0, 2.0));
        assert_eq!(t.range(&data, &q).len(), 32);
    }
}
