//! Octree — non-uniform space-oriented partitioning (§3.2, \[14\]).
//!
//! The paper groups the octree with the point access methods whose support
//! for volumetric objects costs either replication or bigger partitions
//! ("loose octree"). This implementation takes the loose route: each node's
//! *placement* cube is its strict octant scaled by a configurable looseness
//! factor, so an element is stored at the deepest node whose loose cube
//! contains its bounding box — no replication, at the price of overlapping
//! node regions and therefore extra child traversals (the §3.2 criticism,
//! measurable through the instrumentation).

use crate::traits::{KnnIndex, KnnSink, RangeSink, SpatialIndex};
use crate::util::{knn_reach, KnnHeap, MinQueue};
use simspatial_geom::{
    predicates, stats, Aabb, Element, ElementId, Point3, QueryScratch, SoaAabbs, Vec3,
};

const NIL: u32 = u32::MAX;

/// Configuration of an [`Octree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OctreeConfig {
    /// Maximum tree depth (root = 0). Default 10.
    pub max_depth: u32,
    /// Entries a node may hold before it tries to split. Default 16.
    pub max_entries: usize,
    /// Loose factor k ≥ 1: placement cubes are the strict octants scaled by
    /// k around their centre. k = 1 is a strict octree; k = 2 is the classic
    /// loose octree. Default 2.
    pub looseness: f32,
}

impl Default for OctreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 10,
            max_entries: 16,
            looseness: 2.0,
        }
    }
}

impl OctreeConfig {
    fn validate(&self) {
        assert!(self.looseness >= 1.0, "looseness must be >= 1");
        assert!(self.max_entries >= 1, "max_entries must be >= 1");
    }
}

#[derive(Debug, Clone)]
struct ONode {
    /// Strict octant cube.
    cube: Aabb,
    depth: u32,
    children: [u32; 8],
    /// Entries in SoA form: range queries run the batched bbox filter over
    /// each visited node's slab.
    entries: SoaAabbs,
}

impl ONode {
    fn new(cube: Aabb, depth: u32) -> Self {
        Self {
            cube,
            depth,
            children: [NIL; 8],
            entries: SoaAabbs::new(),
        }
    }

    fn has_children(&self) -> bool {
        self.children.iter().any(|&c| c != NIL)
    }
}

/// A loose octree over element bounding boxes.
#[derive(Debug, Clone)]
pub struct Octree {
    nodes: Vec<ONode>,
    config: OctreeConfig,
    len: usize,
}

impl Octree {
    /// Builds an octree over `elements`; the root cube is the cubified tight
    /// bound of the data.
    pub fn build(elements: &[Element], config: OctreeConfig) -> Self {
        config.validate();
        let bounds = Aabb::union_all(elements.iter().map(Element::aabb));
        let mut tree = Self::empty_over(bounds, config);
        for e in elements {
            tree.insert(e.id, e.aabb());
        }
        tree
    }

    /// An empty octree covering `region`.
    pub fn empty_over(region: Aabb, config: OctreeConfig) -> Self {
        config.validate();
        let cube = cubify(region);
        Self {
            nodes: vec![ONode::new(cube, 0)],
            config,
            len: 0,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The loose (placement/query) cube of a node.
    fn loose(&self, node: u32) -> Aabb {
        let cube = self.nodes[node as usize].cube;
        let c = cube.center();
        let half = cube.extent() * (0.5 * self.config.looseness);
        Aabb {
            min: c - half,
            max: c + half,
        }
    }

    /// Strict cube of the `oct`-th child of `node`.
    fn child_cube(&self, node: u32, oct: usize) -> Aabb {
        let cube = self.nodes[node as usize].cube;
        let c = cube.center();
        let min = Point3::new(
            if oct & 1 == 0 { cube.min.x } else { c.x },
            if oct & 2 == 0 { cube.min.y } else { c.y },
            if oct & 4 == 0 { cube.min.z } else { c.z },
        );
        let max = Point3::new(
            if oct & 1 == 0 { c.x } else { cube.max.x },
            if oct & 2 == 0 { c.y } else { cube.max.y },
            if oct & 4 == 0 { c.z } else { cube.max.z },
        );
        Aabb { min, max }
    }

    /// The child octant whose loose cube contains `bbox`, if any.
    fn fitting_child(&self, node: u32, bbox: &Aabb) -> Option<usize> {
        // Route by the bbox centre; verify the loose cube of that octant
        // actually contains the whole box.
        let cube = self.nodes[node as usize].cube;
        let c = cube.center();
        let bc = bbox.center();
        let oct = usize::from(bc.x >= c.x)
            | (usize::from(bc.y >= c.y) << 1)
            | (usize::from(bc.z >= c.z) << 2);
        let strict = self.child_cube(node, oct);
        let lc = strict.center();
        let half = strict.extent() * (0.5 * self.config.looseness);
        let loose = Aabb {
            min: lc - half,
            max: lc + half,
        };
        if loose.contains(bbox) {
            Some(oct)
        } else {
            None
        }
    }

    /// Inserts an entry.
    pub fn insert(&mut self, id: ElementId, bbox: Aabb) {
        let mut node = 0u32;
        loop {
            let depth = self.nodes[node as usize].depth;
            if depth >= self.config.max_depth {
                break;
            }
            // Descend only if the entry fits a child's loose cube AND the
            // node is already split or over budget (lazy splitting).
            let should_descend = self.nodes[node as usize].has_children()
                || self.nodes[node as usize].entries.len() >= self.config.max_entries;
            if !should_descend {
                break;
            }
            match self.fitting_child(node, &bbox) {
                Some(oct) => {
                    node = self.ensure_child(node, oct);
                }
                None => break,
            }
        }
        self.nodes[node as usize].entries.push(bbox, id);
        self.len += 1;
        self.maybe_split(node);
    }

    fn ensure_child(&mut self, node: u32, oct: usize) -> u32 {
        let existing = self.nodes[node as usize].children[oct];
        if existing != NIL {
            return existing;
        }
        let cube = self.child_cube(node, oct);
        let depth = self.nodes[node as usize].depth + 1;
        self.nodes.push(ONode::new(cube, depth));
        let idx = (self.nodes.len() - 1) as u32;
        self.nodes[node as usize].children[oct] = idx;
        idx
    }

    /// Pushes down entries that fit into children once a node overflows.
    fn maybe_split(&mut self, node: u32) {
        let n = &self.nodes[node as usize];
        if n.entries.len() <= self.config.max_entries || n.depth >= self.config.max_depth {
            return;
        }
        let entries = std::mem::take(&mut self.nodes[node as usize].entries);
        let mut kept = SoaAabbs::new();
        for (bbox, id) in entries.iter() {
            match self.fitting_child(node, &bbox) {
                Some(oct) => {
                    let child = self.ensure_child(node, oct);
                    self.nodes[child as usize].entries.push(bbox, id);
                }
                None => kept.push(bbox, id),
            }
        }
        self.nodes[node as usize].entries = kept;
        // Recursively split children that absorbed too much.
        let children = self.nodes[node as usize].children;
        for c in children {
            if c != NIL {
                self.maybe_split(c);
            }
        }
    }

    /// Removes the entry `(id, bbox)`; returns `true` if found. The bbox
    /// must be the one the entry was inserted with (same contract as the
    /// R-Tree — and the same massive-update pain point).
    pub fn remove(&mut self, id: ElementId, bbox: &Aabb) -> bool {
        let mut node = 0u32;
        loop {
            if let Some(pos) = self.nodes[node as usize].entries.position_of(id, bbox) {
                self.nodes[node as usize].entries.swap_remove(pos);
                self.len -= 1;
                return true;
            }
            match self.fitting_child(node, bbox) {
                Some(oct) => {
                    let child = self.nodes[node as usize].children[oct];
                    if child == NIL {
                        return false;
                    }
                    node = child;
                }
                None => return false,
            }
        }
    }

    /// Approximate structure size.
    pub fn structure_bytes(&self) -> usize {
        let mut total = self.nodes.capacity() * std::mem::size_of::<ONode>();
        for n in &self.nodes {
            total += n.entries.memory_bytes();
        }
        total
    }
}

impl SpatialIndex for Octree {
    fn name(&self) -> &'static str {
        "Octree"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn range_into(
        &self,
        data: &[Element],
        query: &Aabb,
        scratch: &mut QueryScratch,
        sink: &mut dyn RangeSink,
    ) {
        scratch.frontier.clear();
        scratch.frontier.push(0u32);
        while let Some(node) = scratch.frontier.pop() {
            stats::record_node_visit();
            let n = &self.nodes[node as usize];
            // Batched bbox filter over the node's SoA slab, then scalar
            // refinement of the survivors against live geometry.
            stats::record_element_tests(n.entries.len() as u64);
            scratch.candidates.clear();
            n.entries.intersect_into(query, &mut scratch.candidates);
            stats::record_element_tests(scratch.candidates.len() as u64);
            for &id in &scratch.candidates {
                if data[id as usize].shape.intersects_aabb(query) {
                    sink.push(id);
                }
            }
            for &c in n.children.iter() {
                if c != NIL && stats::tree_test(|| self.loose(c).intersects(query)) {
                    scratch.frontier.push(c);
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.structure_bytes()
    }
}

impl KnnIndex for Octree {
    /// Best-first kNN over loose-cube `MINDIST`, like the R-Tree: nodes pop
    /// from a min-queue in ascending lower-bound order; each popped node's
    /// entry slab runs the batched `MINDIST` kernel
    /// ([`SoaAabbs::min_dist2_into`]) and only entries whose box lower bound
    /// the heap admits (`KnnHeap::may_admit`) pay the exact element-surface
    /// distance. Terminates when the heap rejects the nearest pending node.
    fn knn_into(
        &self,
        data: &[Element],
        p: &Point3,
        k: usize,
        scratch: &mut QueryScratch,
        sink: &mut dyn KnnSink,
    ) {
        if k == 0 || self.len == 0 {
            return;
        }
        let mut best = KnnHeap::with_reach(&mut scratch.knn_best, k, knn_reach(p, &self.loose(0)));
        let mut queue = MinQueue::new(&mut scratch.knn_queue);
        queue.push(0.0, 0);
        let exact = |id: ElementId| predicates::element_distance(&data[id as usize], p);
        while let Some(node) = queue.pop_admitted(&best) {
            let n = &self.nodes[node as usize];
            stats::record_node_visit();
            if !n.entries.is_empty() {
                n.entries.min_dist2_into(p, &mut scratch.dists);
                stats::record_lower_bound_evals(n.entries.len() as u64);
                // Element tests are charged per refined candidate inside
                // `element_distance` — matching the seed octree's one test
                // per entry, not slab + survivors.
                best.refine(&scratch.dists, n.entries.ids(), exact);
            }
            for &c in &n.children {
                if c != NIL {
                    let lb2 = stats::tree_test(|| self.loose(c).min_distance2(p));
                    if best.may_admit(lb2) {
                        queue.push(lb2, c);
                    }
                }
            }
        }
        best.emit(sink);
    }
}

/// The smallest cube containing `region` (centred on it).
fn cubify(region: Aabb) -> Aabb {
    if region.is_empty() {
        return Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0));
    }
    let c = region.center();
    let e = region.extent();
    let half = e.x.max(e.y).max(e.z).max(1e-6) * 0.5;
    let h = Vec3::new(half, half, half);
    Aabb {
        min: c - h,
        max: c + h,
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
    fn range_matches_scan_strict_and_loose() {
        let data = scattered(2500, 0.5);
        let scan = LinearScan::build(&data);
        for looseness in [1.0f32, 2.0] {
            let t = Octree::build(
                &data,
                OctreeConfig {
                    looseness,
                    ..Default::default()
                },
            );
            assert_eq!(t.len(), 2500);
            for i in 0..12 {
                let c = Point3::new((i * 7) as f32, (i * 6) as f32, (i * 5) as f32);
                let q = Aabb::new(c, Point3::new(c.x + 11.0, c.y + 9.0, c.z + 13.0));
                let mut a = t.range(&data, &q);
                let mut b = scan.range(&data, &q);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "looseness {looseness} query {i}");
            }
        }
    }

    #[test]
    fn knn_matches_scan() {
        let data = scattered(1500, 0.4);
        let t = Octree::build(&data, OctreeConfig::default());
        let scan = LinearScan::build(&data);
        for i in 0..8 {
            let p = Point3::new((i * 12) as f32, (i * 10) as f32, (i * 8) as f32);
            let a = t.knn(&data, &p, 5);
            let b = scan.knn(&data, &p, 5);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.1 - y.1).abs() < 1e-4, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let data = scattered(400, 0.3);
        let mut t = Octree::build(&data, OctreeConfig::default());
        for e in &data {
            assert!(t.remove(e.id, &e.aabb()), "missing {}", e.id);
        }
        assert!(t.is_empty());
        assert!(!t.remove(0, &data[0].aabb()));
    }

    #[test]
    fn big_elements_stay_high() {
        // An element spanning the whole space cannot fit any child; it must
        // live at (or near) the root and still be found.
        let mut data = scattered(100, 0.2);
        data.push(Element::new(
            100,
            Shape::Sphere(Sphere::new(Point3::new(50.0, 50.0, 50.0), 49.0)),
        ));
        let t = Octree::build(&data, OctreeConfig::default());
        // A small box just inside the giant sphere's surface along x.
        let q = Aabb::new(Point3::new(1.5, 49.0, 49.0), Point3::new(3.0, 51.0, 51.0));
        assert!(
            data[100].shape.intersects_aabb(&q),
            "test query must touch the sphere"
        );
        let hits = t.range(&data, &q);
        assert!(hits.contains(&100));
    }

    #[test]
    fn empty_tree() {
        let t = Octree::build(&[], OctreeConfig::default());
        assert!(t.is_empty());
        assert!(t.range(&[], &Aabb::from_point(Point3::ORIGIN)).is_empty());
        assert!(t.knn(&[], &Point3::ORIGIN, 2).is_empty());
    }

    #[test]
    fn looseness_reduces_root_entries() {
        let data = scattered(3000, 1.2);
        let strict = Octree::build(
            &data,
            OctreeConfig {
                looseness: 1.0,
                ..Default::default()
            },
        );
        let loose = Octree::build(
            &data,
            OctreeConfig {
                looseness: 2.0,
                ..Default::default()
            },
        );
        // Loose placement lets elongated elements sink deeper: fewer entries
        // stuck at the root.
        let root_strict = strict.nodes[0].entries.len();
        let root_loose = loose.nodes[0].entries.len();
        assert!(
            root_loose <= root_strict,
            "loose root {root_loose} > strict root {root_strict}"
        );
    }
}
