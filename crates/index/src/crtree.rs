//! CR-Tree: the cache-conscious R-Tree of Kim & Kwon \[16\] (§3.2).
//!
//! The CR-Tree "optimizes the R-Tree for use in memory by making the nodes
//! fit into a multiple of the cache block through compression, pointer
//! reduction and quantization of the bounding boxes". This implementation
//! keeps the two ingredients that matter for the paper's argument:
//!
//! * **QRMBRs** — child boxes stored as 8-bit *quantized relative MBRs*
//!   against the parent's full-precision reference box (10 bytes per child
//!   vs 28 uncompressed), dequantised conservatively so the filter never
//!   misses;
//! * **small nodes** — default fan-out 42 keeps a node's quantized children
//!   inside the 640 B–1 KB band the paper cites \[31\].
//!
//! ## Layout and the batched quantized filter
//!
//! All children of all nodes live in **one CSR slab**: seven parallel
//! arrays (six `u8` quantized coordinates + one `u32` payload), each node
//! holding a `(start, count)` window, windows packed back to back — no
//! per-node child vectors, no pointer chase between a node and its
//! children. Queries quantize the query box **once per node** into the
//! node's reference frame
//! (conservatively: min floored, max ceiled, so the integer overlap test
//! can only widen) and then run a branch-free `u8` comparison pass over the
//! child window — 16+ lanes per SIMD register instead of six
//! int→float conversions plus six multiplies *per child* for scalar
//! dequantisation.
//!
//! The structure is built by STR packing and is static: the paper's §3.2
//! verdict is that memory optimisation buys the CR-Tree only ≈ 2× because
//! "the fundamental problem of overlap remains" — experiment E6 measures
//! exactly that against [`crate::RTree`].

use crate::rtree::bulk::str_tile;
use crate::traits::{KnnIndex, KnnSink, RangeSink, SpatialIndex};
use crate::util::{knn_reach, KnnHeap, MinQueue};
use simspatial_geom::{predicates, stats, Aabb, Element, ElementId, Point3, QueryScratch};

/// Configuration of a [`CrTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrTreeConfig {
    /// Children per node. Default 42 (≈ 420 B of quantized children ≈ 7
    /// cache lines).
    pub fanout: usize,
}

impl Default for CrTreeConfig {
    fn default() -> Self {
        Self { fanout: 42 }
    }
}

/// A quantized child reference: 6 quantized coordinates + payload. Used as
/// the staging form during build; the tree itself stores children
/// decomposed into the SoA slab.
#[derive(Debug, Clone, Copy)]
struct QChild {
    qmin: [u8; 3],
    qmax: [u8; 3],
    /// Child node index (internal) or element id (leaf).
    payload: u32,
}

/// A node: full-precision reference box plus a window into the child slab.
#[derive(Debug, Clone)]
struct CrNode {
    /// Full-precision reference box; children quantized against it.
    mbr: Aabb,
    level: u32,
    /// First child in the slab.
    child_start: u32,
    /// Number of children.
    child_count: u32,
}

/// The CSR child slab: quantized coordinates and payloads of every node's
/// children, stored as seven parallel arrays for the batched filter.
#[derive(Debug, Clone, Default)]
struct ChildSlab {
    qmin_x: Vec<u8>,
    qmin_y: Vec<u8>,
    qmin_z: Vec<u8>,
    qmax_x: Vec<u8>,
    qmax_y: Vec<u8>,
    qmax_z: Vec<u8>,
    payload: Vec<u32>,
}

impl ChildSlab {
    fn push(&mut self, c: QChild) {
        self.qmin_x.push(c.qmin[0]);
        self.qmin_y.push(c.qmin[1]);
        self.qmin_z.push(c.qmin[2]);
        self.qmax_x.push(c.qmax[0]);
        self.qmax_y.push(c.qmax[1]);
        self.qmax_z.push(c.qmax[2]);
        self.payload.push(c.payload);
    }

    fn len(&self) -> usize {
        self.payload.len()
    }

    fn memory_bytes(&self) -> usize {
        self.qmin_x.capacity() * 6 + self.payload.capacity() * std::mem::size_of::<u32>()
    }

    /// The batched quantized filter: appends to `out` the payloads of all
    /// children in `start..start+count` whose quantized box overlaps the
    /// quantized query `(qlo, qhi)`.
    ///
    /// Branch-free comparisons over the pre-sliced `u8` arrays — the shape
    /// the compiler autovectorizes.
    #[inline]
    fn filter_into(
        &self,
        start: usize,
        count: usize,
        qlo: [u8; 3],
        qhi: [u8; 3],
        out: &mut Vec<u32>,
    ) {
        let end = start + count;
        let (nx, xx) = (&self.qmin_x[start..end], &self.qmax_x[start..end]);
        let (ny, xy) = (&self.qmin_y[start..end], &self.qmax_y[start..end]);
        let (nz, xz) = (&self.qmin_z[start..end], &self.qmax_z[start..end]);
        let ids = &self.payload[start..end];
        for j in 0..ids.len().min(nx.len()) {
            let hit = (nx[j] <= qhi[0]) as u8
                & (xx[j] >= qlo[0]) as u8
                & (ny[j] <= qhi[1]) as u8
                & (xy[j] >= qlo[1]) as u8
                & (nz[j] <= qhi[2]) as u8
                & (xz[j] >= qlo[2]) as u8;
            if hit != 0 {
                out.push(ids[j]);
            }
        }
    }

    /// The batched quantized `MINDIST` kernel: writes into `out` (resized to
    /// `count`) the squared lower-bound distance from `p` to the
    /// conservatively dequantized box of every child in
    /// `start..start+count`, given the owning node's `reference` frame.
    ///
    /// Dequantization only ever widens boxes, so each value lower-bounds the
    /// true box `MINDIST` and therefore the exact element-surface distance —
    /// the bound the CR-Tree kNN search prunes with. One streaming pass over
    /// the `u8` slab arrays; the per-axis scale (`extent/255`) is hoisted
    /// out of the loop.
    fn min_dist2_into(
        &self,
        start: usize,
        count: usize,
        reference: &Aabb,
        p: &Point3,
        out: &mut Vec<f32>,
    ) {
        let ext = reference.extent();
        let (sx, sy, sz) = (ext.x / 255.0, ext.y / 255.0, ext.z / 255.0);
        let (lx, ly, lz) = (reference.min.x, reference.min.y, reference.min.z);
        let end = start + count;
        let (nx, xx) = (&self.qmin_x[start..end], &self.qmax_x[start..end]);
        let (ny, xy) = (&self.qmin_y[start..end], &self.qmax_y[start..end]);
        let (nz, xz) = (&self.qmin_z[start..end], &self.qmax_z[start..end]);
        out.clear();
        out.resize(count, 0.0);
        for (j, slot) in out.iter_mut().enumerate() {
            let dx = (lx + f32::from(nx[j]) * sx - p.x)
                .max(0.0)
                .max(p.x - (lx + f32::from(xx[j]) * sx));
            let dy = (ly + f32::from(ny[j]) * sy - p.y)
                .max(0.0)
                .max(p.y - (ly + f32::from(xy[j]) * sy));
            let dz = (lz + f32::from(nz[j]) * sz - p.z)
                .max(0.0)
                .max(p.z - (lz + f32::from(xz[j]) * sz));
            *slot = dx * dx + dy * dy + dz * dz;
        }
    }
}

/// A static, STR-packed, quantized R-Tree.
#[derive(Debug, Clone)]
pub struct CrTree {
    nodes: Vec<CrNode>,
    slab: ChildSlab,
    root: usize,
    len: usize,
    config: CrTreeConfig,
}

impl CrTree {
    /// Builds the tree from a dataset by STR packing.
    pub fn build(elements: &[Element], config: CrTreeConfig) -> Self {
        assert!(config.fanout >= 2, "fanout must be at least 2");
        let mut entries: Vec<(Aabb, u32)> = elements.iter().map(|e| (e.aabb(), e.id)).collect();
        let mut nodes: Vec<CrNode> = Vec::new();
        let mut slab = ChildSlab::default();
        let len = entries.len();
        if entries.is_empty() {
            nodes.push(CrNode {
                mbr: Aabb::empty(),
                level: 0,
                child_start: 0,
                child_count: 0,
            });
            return Self {
                nodes,
                slab,
                root: 0,
                len: 0,
                config,
            };
        }

        let pack_level = |refs: &[(Aabb, u32)],
                          level: u32,
                          nodes: &mut Vec<CrNode>,
                          slab: &mut ChildSlab|
         -> Vec<(Aabb, u32)> {
            let mut next = Vec::new();
            for chunk in refs.chunks(config.fanout) {
                let mbr = Aabb::union_all(chunk.iter().map(|(b, _)| *b));
                let child_start = slab.len() as u32;
                for &(b, payload) in chunk {
                    slab.push(quantize(&mbr, &b, payload));
                }
                nodes.push(CrNode {
                    mbr,
                    level,
                    child_start,
                    child_count: chunk.len() as u32,
                });
                next.push((mbr, (nodes.len() - 1) as u32));
            }
            next
        };

        str_tile(&mut entries, config.fanout, |e| e.0.center());
        let mut level_refs = pack_level(&entries, 0, &mut nodes, &mut slab);
        let mut level = 0u32;
        while level_refs.len() > 1 {
            level += 1;
            str_tile(&mut level_refs, config.fanout, |r| r.0.center());
            level_refs = pack_level(&level_refs, level, &mut nodes, &mut slab);
        }
        let root = level_refs[0].1 as usize;
        Self {
            nodes,
            slab,
            root,
            len,
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CrTreeConfig {
        &self.config
    }

    /// Height of the tree.
    pub fn height(&self) -> usize {
        self.nodes[self.root].level as usize + 1
    }

    /// Bytes per node under quantization (diagnostic: compare against the
    /// uncompressed R-Tree's node size).
    pub fn node_bytes(&self) -> usize {
        std::mem::size_of::<CrNode>() + self.config.fanout * (6 + std::mem::size_of::<u32>())
    }
}

/// Quantizes `bbox` relative to `reference` at 8-bit resolution, rounding
/// outward so the dequantized box always contains the original.
fn quantize(reference: &Aabb, bbox: &Aabb, payload: u32) -> QChild {
    let ext = reference.extent();
    let q = |v: f32, lo: f32, extent: f32, up: bool| -> u8 {
        if extent <= 0.0 {
            return 0;
        }
        let t = ((v - lo) / extent * 255.0).clamp(0.0, 255.0);
        if up {
            t.ceil() as u8
        } else {
            t.floor() as u8
        }
    };
    QChild {
        qmin: [
            q(bbox.min.x, reference.min.x, ext.x, false),
            q(bbox.min.y, reference.min.y, ext.y, false),
            q(bbox.min.z, reference.min.z, ext.z, false),
        ],
        qmax: [
            q(bbox.max.x, reference.min.x, ext.x, true),
            q(bbox.max.y, reference.min.y, ext.y, true),
            q(bbox.max.z, reference.min.z, ext.z, true),
        ],
        payload,
    }
}

/// Conservative dequantization: the result contains the original box.
#[cfg(test)]
fn dequantize(reference: &Aabb, q: &QChild) -> Aabb {
    let ext = reference.extent();
    let d = |u: u8, lo: f32, extent: f32| lo + f32::from(u) / 255.0 * extent;
    Aabb {
        min: Point3::new(
            d(q.qmin[0], reference.min.x, ext.x),
            d(q.qmin[1], reference.min.y, ext.y),
            d(q.qmin[2], reference.min.z, ext.z),
        ),
        max: Point3::new(
            d(q.qmax[0], reference.min.x, ext.x),
            d(q.qmax[1], reference.min.y, ext.y),
            d(q.qmax[2], reference.min.z, ext.z),
        ),
    }
}

/// Quantizes `query` into `reference`'s frame, rounding the low corner down
/// and the high corner up, so the integer overlap test against child
/// QRMBRs can only widen the filter (never miss). Degenerate axes pass
/// everything — refinement sorts them out.
fn quantize_query(reference: &Aabb, query: &Aabb) -> ([u8; 3], [u8; 3]) {
    let ext = reference.extent();
    let lo = |v: f32, rlo: f32, extent: f32| -> u8 {
        if extent <= 0.0 {
            return 0;
        }
        ((v - rlo) / extent * 255.0).floor().clamp(0.0, 255.0) as u8
    };
    let hi = |v: f32, rlo: f32, extent: f32| -> u8 {
        if extent <= 0.0 {
            return 255;
        }
        ((v - rlo) / extent * 255.0).ceil().clamp(0.0, 255.0) as u8
    };
    (
        [
            lo(query.min.x, reference.min.x, ext.x),
            lo(query.min.y, reference.min.y, ext.y),
            lo(query.min.z, reference.min.z, ext.z),
        ],
        [
            hi(query.max.x, reference.min.x, ext.x),
            hi(query.max.y, reference.min.y, ext.y),
            hi(query.max.z, reference.min.z, ext.z),
        ],
    )
}

impl SpatialIndex for CrTree {
    fn name(&self) -> &'static str {
        "CR-Tree"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Batched quantized filter + scalar refine: the query is quantized
    /// once per visited node and compared against the node's child window
    /// in the `u8` slab; only leaf survivors touch `data` for the exact
    /// geometry test.
    fn range_into(
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
            if n.child_count == 0 {
                continue;
            }
            // Full-precision gate: clamping the quantized query to the
            // reference frame is only tight when the frames overlap.
            if !n.mbr.intersects(query) {
                continue;
            }
            let (qlo, qhi) = quantize_query(&n.mbr, query);
            let (start, count) = (n.child_start as usize, n.child_count as usize);
            if n.level == 0 {
                stats::record_element_tests(count as u64);
                scratch.candidates.clear();
                self.slab
                    .filter_into(start, count, qlo, qhi, &mut scratch.candidates);
                stats::record_element_tests(scratch.candidates.len() as u64);
                for &id in &scratch.candidates {
                    if data[id as usize].shape.intersects_aabb(query) {
                        sink.push(id);
                    }
                }
            } else {
                stats::record_node_visit();
                stats::record_tree_tests(count as u64);
                self.slab
                    .filter_into(start, count, qlo, qhi, &mut scratch.frontier);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<CrNode>() + self.slab.memory_bytes()
    }
}

impl KnnIndex for CrTree {
    /// Best-first kNN over the quantized CSR slab: nodes pop from a
    /// min-queue in ascending lower-bound order; each popped node runs the
    /// batched quantized `MINDIST` kernel (`ChildSlab::min_dist2_into`)
    /// over its child window — dequantization is conservative, so the
    /// resulting bounds never exceed the true distances. Internal children
    /// enqueue on their bound; leaf children pay the exact element-surface
    /// distance only when the heap admits their bound (`KnnHeap::may_admit`).
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
        let envelope = self.nodes[self.root].mbr;
        let mut best = KnnHeap::with_reach(&mut scratch.knn_best, k, knn_reach(p, &envelope));
        let mut queue = MinQueue::new(&mut scratch.knn_queue);
        let dists = &mut scratch.dists;
        queue.push(0.0, self.root as u32);
        let exact = |id: ElementId| predicates::element_distance(&data[id as usize], p);
        while let Some(node) = queue.pop_admitted(&best) {
            let n = &self.nodes[node as usize];
            let (start, count) = (n.child_start as usize, n.child_count as usize);
            if count == 0 {
                continue;
            }
            let children = &self.slab.payload[start..start + count];
            self.slab.min_dist2_into(start, count, &n.mbr, p, dists);
            stats::record_lower_bound_evals(count as u64);
            if n.level == 0 {
                stats::record_element_tests(count as u64);
                best.refine(dists, children, exact);
            } else {
                stats::record_node_visit();
                stats::record_tree_tests(count as u64);
                for (&lb2, &c) in dists.iter().zip(children) {
                    if best.may_admit(lb2) {
                        queue.push(lb2, c);
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
    use crate::{LinearScan, RTree, RTreeConfig};
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
    fn quantization_is_conservative() {
        let reference = Aabb::new(Point3::ORIGIN, Point3::new(10.0, 20.0, 30.0));
        for i in 0..200u32 {
            let h = i.wrapping_mul(0x9E3779B9);
            let x = (h % 90) as f32 / 10.0;
            let y = ((h >> 8) % 190) as f32 / 10.0;
            let z = ((h >> 16) % 290) as f32 / 10.0;
            let b = Aabb::new(Point3::new(x, y, z), Point3::new(x + 0.7, y + 0.3, z + 0.9));
            let qc = quantize(&reference, &b, i);
            let dq = dequantize(&reference, &qc);
            assert!(
                dq.contains(&b),
                "dequantized box must contain original: {dq:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn quantized_query_test_is_conservative() {
        // Whenever a child box truly intersects the query, the integer
        // overlap test on (quantized child, quantized query) must pass.
        let reference = Aabb::new(Point3::ORIGIN, Point3::new(10.0, 20.0, 30.0));
        for i in 0..400u32 {
            let h = i.wrapping_mul(0x9E3779B9);
            let x = (h % 90) as f32 / 10.0;
            let y = ((h >> 8) % 190) as f32 / 10.0;
            let z = ((h >> 16) % 290) as f32 / 10.0;
            let b = Aabb::new(Point3::new(x, y, z), Point3::new(x + 0.7, y + 0.3, z + 0.9));
            let q = Aabb::new(
                Point3::new((h % 130) as f32 / 10.0 - 2.0, -1.0, (h % 310) as f32 / 10.0),
                Point3::new(
                    (h % 130) as f32 / 10.0 + 1.5,
                    25.0,
                    (h % 310) as f32 / 10.0 + 3.0,
                ),
            );
            if !b.intersects(&q) {
                continue;
            }
            let qc = quantize(&reference, &b, i);
            let (qlo, qhi) = quantize_query(&reference, &q);
            let pass = qc.qmin[0] <= qhi[0]
                && qc.qmax[0] >= qlo[0]
                && qc.qmin[1] <= qhi[1]
                && qc.qmax[1] >= qlo[1]
                && qc.qmin[2] <= qhi[2]
                && qc.qmax[2] >= qlo[2];
            assert!(pass, "integer test missed a true intersection: {b:?} {q:?}");
        }
    }

    #[test]
    fn degenerate_reference_box() {
        let reference = Aabb::from_point(Point3::new(1.0, 2.0, 3.0));
        let qc = quantize(&reference, &reference, 0);
        let dq = dequantize(&reference, &qc);
        assert!(dq.contains(&reference));
        let (qlo, qhi) = quantize_query(&reference, &reference);
        assert!(qlo[0] <= qc.qmax[0] && qhi[0] >= qc.qmin[0]);
    }

    #[test]
    fn range_matches_scan() {
        for n in [3000, 2500] {
            let data = scattered(n, 0.5);
            let t = CrTree::build(&data, CrTreeConfig::default());
            assert_eq!(t.len(), n as usize);
            let scan = LinearScan::build(&data);
            for i in 0..15 {
                let c = Point3::new((i * 6) as f32, (i * 5) as f32, (i * 4) as f32);
                let q = Aabb::new(c, Point3::new(c.x + 12.0, c.y + 10.0, c.z + 8.0));
                let mut a = t.range(&data, &q);
                let mut b = scan.range(&data, &q);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{n} query {i}");
            }
        }
    }

    #[test]
    fn compressed_nodes_are_smaller_than_rtree() {
        let data = scattered(5000, 0.3);
        let cr = CrTree::build(&data, CrTreeConfig::default());
        let rt = RTree::bulk_load(&data, RTreeConfig::default());
        // Per-entry structure cost must be lower for the CR-Tree.
        let cr_per = cr.memory_bytes() as f64 / data.len() as f64;
        let rt_per = rt.memory_bytes() as f64 / data.len() as f64;
        assert!(
            cr_per < rt_per,
            "CR-Tree should be denser: {cr_per:.1} B/entry vs R-Tree {rt_per:.1}"
        );
    }

    #[test]
    fn empty_tree() {
        let t = CrTree::build(&[], CrTreeConfig::default());
        assert!(t.is_empty());
        assert!(t.range(&[], &Aabb::from_point(Point3::ORIGIN)).is_empty());
        assert_eq!(t.height(), 1);
    }
}
