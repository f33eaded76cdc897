//! STR bulk loading (Leutenegger et al.): the paper's rebuild path.
//!
//! §4.1: "Building the new R-Tree index from scratch ... only takes 48
//! seconds" against 130 s for updating every entry. Sort-Tile-Recursive
//! packs entries into fully-filled leaves by recursive coordinate tiling,
//! producing a tree with no overlap between *sibling leaf tiles'* source
//! regions and near-perfect fill — which is why rebuilds win.
//!
//! The tiling here is throughput-tuned: each sort level runs over cached
//! 8-byte `(key, index)` permutations instead of comparator closures that
//! re-derive centres from 28-byte entries per probe, slab/row sorts and
//! leaf packing run data-parallel over scoped threads (see
//! [`simspatial_geom::parallel`]), and packed leaves land directly in
//! structure-of-arrays form. The seed implementation stays in test builds
//! (`bulk_load_entries_reference`) as the reference the loader's own test
//! compares tile structure against.

use super::{Node, RTree, RTreeConfig, NIL};
use simspatial_geom::parallel::{
    par_for_each_slice, par_map_chunks, par_sort_by_cached_key, sort_by_cached_key_serial,
    split_at_many,
};
use simspatial_geom::{Aabb, Element, ElementId, SoaAabbs};

impl RTree {
    /// Builds a tree from a dataset by STR packing. Equivalent entries to
    /// inserting every element, but O(n log n) with perfect node fill.
    pub fn bulk_load(elements: &[Element], config: RTreeConfig) -> Self {
        Self::bulk_load_entries(
            par_map_chunks(elements, 4096, |_, chunk| {
                chunk.iter().map(|e| (e.aabb(), e.id)).collect::<Vec<_>>()
            })
            .concat(),
            config,
        )
    }

    /// STR bulk load from raw `(bbox, id)` entries.
    pub fn bulk_load_entries(entries: Vec<(Aabb, ElementId)>, config: RTreeConfig) -> Self {
        config.validate();
        let mut tree = RTree::new(config);
        tree.rebuild_entries(entries);
        tree
    }

    /// Rebuilds this tree in place from new entries, reusing the arena
    /// allocation — the fast path the §4.1 experiment measures per step.
    pub fn rebuild(&mut self, elements: &[Element]) {
        self.rebuild_entries(elements.iter().map(|e| (e.aabb(), e.id)).collect());
    }

    /// In-place rebuild from raw entries.
    pub fn rebuild_entries(&mut self, mut entries: Vec<(Aabb, ElementId)>) {
        let n = entries.len();
        self.nodes.clear();
        self.free.clear();
        self.set_len(n);
        if n == 0 {
            self.nodes.push(Node::new_leaf());
            self.root = 0;
            return;
        }

        let cap = self.config().max_entries;
        // ---- pack leaves ------------------------------------------------
        str_tile(&mut entries, cap, |e| e.0.center());
        // Leaf construction (SoA fill + MBR union) is independent per
        // chunk-of-leaves; parallelize over groups of whole leaves.
        let leaf_count = n.div_ceil(cap);
        let leaf_chunks: Vec<&[(Aabb, ElementId)]> = entries.chunks(cap).collect();
        let min_leaves = PARALLEL_MIN / cap;
        let built: Vec<Vec<Node>> = par_map_chunks(&leaf_chunks, min_leaves, |_, chunks| {
            chunks
                .iter()
                .map(|chunk| {
                    let mut leaf = Node::new_leaf();
                    leaf.entries = SoaAabbs::from_entries(chunk);
                    leaf.mbr = leaf.entries.union_all();
                    leaf
                })
                .collect()
        });
        let mut level_nodes: Vec<usize> = Vec::with_capacity(leaf_count);
        for leaf in built.into_iter().flatten() {
            self.nodes.push(leaf);
            level_nodes.push(self.nodes.len() - 1);
        }

        // ---- pack upper levels ------------------------------------------
        let mut level = 0u32;
        while level_nodes.len() > 1 {
            level += 1;
            let mut refs: Vec<(Aabb, usize)> = level_nodes
                .iter()
                .map(|&i| (self.nodes[i].mbr, i))
                .collect();
            str_tile(&mut refs, cap, |r| r.0.center());
            let mut next: Vec<usize> = Vec::with_capacity(refs.len().div_ceil(cap));
            for chunk in refs.chunks(cap) {
                let mut node = Node::new_internal(level);
                node.children = chunk.iter().map(|&(_, i)| i).collect();
                node.mbr = Aabb::union_all(chunk.iter().map(|(b, _)| *b));
                self.nodes.push(node);
                let idx = self.nodes.len() - 1;
                for &(_, c) in chunk {
                    self.nodes[c].parent = idx;
                }
                next.push(idx);
            }
            level_nodes = next;
        }
        self.root = level_nodes[0];
        self.nodes[self.root].parent = NIL;
    }

    /// The seed implementation's bulk load (comparator-closure sorts, AoS
    /// leaves filled sequentially), kept verbatim as the reference for
    /// differential tests. Produces an identical tree shape.
    #[cfg(test)]
    pub fn bulk_load_entries_reference(
        mut entries: Vec<(Aabb, ElementId)>,
        config: RTreeConfig,
    ) -> Self {
        config.validate();
        let mut tree = RTree::new(config);
        let n = entries.len();
        tree.nodes.clear();
        tree.free.clear();
        tree.set_len(n);
        if n == 0 {
            tree.nodes.push(Node::new_leaf());
            tree.root = 0;
            return tree;
        }
        let cap = config.max_entries;
        str_tile_reference(&mut entries, cap, |e| e.0.center());
        let mut level_nodes: Vec<usize> = Vec::with_capacity(n.div_ceil(cap));
        for chunk in entries.chunks(cap) {
            let mut leaf = Node::new_leaf();
            leaf.entries = SoaAabbs::from_entries(chunk);
            leaf.mbr = Aabb::union_all(chunk.iter().map(|(b, _)| *b));
            tree.nodes.push(leaf);
            level_nodes.push(tree.nodes.len() - 1);
        }
        let mut level = 0u32;
        while level_nodes.len() > 1 {
            level += 1;
            let mut refs: Vec<(Aabb, usize)> = level_nodes
                .iter()
                .map(|&i| (tree.nodes[i].mbr, i))
                .collect();
            str_tile_reference(&mut refs, cap, |r| r.0.center());
            let mut next: Vec<usize> = Vec::with_capacity(refs.len().div_ceil(cap));
            for chunk in refs.chunks(cap) {
                let mut node = Node::new_internal(level);
                node.children = chunk.iter().map(|&(_, i)| i).collect();
                node.mbr = Aabb::union_all(chunk.iter().map(|(b, _)| *b));
                tree.nodes.push(node);
                let idx = tree.nodes.len() - 1;
                for &(_, c) in chunk {
                    tree.nodes[c].parent = idx;
                }
                next.push(idx);
            }
            level_nodes = next;
        }
        tree.root = level_nodes[0];
        tree.nodes[tree.root].parent = NIL;
        tree
    }
}

/// Computes the STR slab boundaries for `n` items: number of x-slabs and
/// the per-slab row length chosen exactly as the reference implementation
/// does, so both tilings produce the same tile structure.
fn slab_len(n: usize, cap: usize) -> usize {
    let leaves = n.div_ceil(cap);
    let s = (leaves as f64).cbrt().ceil() as usize;
    n.div_ceil(s)
}

/// Fewest entries for which an STR load fans out to worker threads: the
/// x sort, the per-slab y/z sorts and the leaf fills. Below it each of
/// those costs less than starting the threads, so a small tree, and every
/// level above the leaves of a large one, loads on the calling thread. On
/// a 2-vCPU host two threads lost to one at 20 000 entries and won from
/// 50 000.
const PARALLEL_MIN: usize = 1 << 15;

/// Sort-Tile-Recursive ordering: after this call, consecutive chunks of
/// `cap` items form spatially coherent tiles. Generic over the item type so
/// the same routine packs leaf entries and internal node references.
///
/// Sorts run over cached `(f32, u32)` permutation keys (one key derivation
/// per item per level instead of two per comparison), and from
/// [`PARALLEL_MIN`] items the x sort and the independent per-slab y/z
/// sorts run in parallel.
pub(crate) fn str_tile<T: Copy + Send + Sync>(
    items: &mut [T],
    cap: usize,
    center: impl Fn(&T) -> simspatial_geom::Point3 + Sync,
) {
    let n = items.len();
    if n <= cap {
        return;
    }
    let slab_len = slab_len(n, cap);

    // S vertical slabs along x.
    let parallel = n >= PARALLEL_MIN;
    if parallel {
        par_sort_by_cached_key(items, |t| center(t).x);
    } else {
        sort_by_cached_key_serial(items, |t| center(t).x);
    }

    // Independent slabs: sort each by y, then rows within it by z.
    let cuts: Vec<usize> = (1..n.div_ceil(slab_len)).map(|i| i * slab_len).collect();
    let slabs = split_at_many(items, &cuts);
    let sort_slab = |slab: &mut [T]| {
        sort_by_cached_key_serial(slab, |t| center(t).y);
        let rows = (slab.len() as f64 / cap as f64).sqrt().ceil() as usize;
        let row_len = slab.len().div_ceil(rows.max(1));
        for row in slab.chunks_mut(row_len) {
            sort_by_cached_key_serial(row, |t| center(t).z);
        }
    };
    if parallel {
        par_for_each_slice(slabs, sort_slab);
    } else {
        slabs.into_iter().for_each(sort_slab);
    }
}

/// The seed implementation's tiling: in-place comparator sorts that
/// re-derive the centre key on every comparison. Kept as the reference the
/// loader's test compares against; produces the same tile structure as
/// [`str_tile`].
#[cfg(test)]
pub(crate) fn str_tile_reference<T>(
    items: &mut [T],
    cap: usize,
    center: impl Fn(&T) -> simspatial_geom::Point3,
) {
    let n = items.len();
    if n <= cap {
        return;
    }
    let slab_len = slab_len(n, cap);

    items.sort_unstable_by(|a, b| center(a).x.total_cmp(&center(b).x));
    let mut start = 0;
    while start < n {
        let end = (start + slab_len).min(n);
        let slab = &mut items[start..end];
        slab.sort_unstable_by(|a, b| center(a).y.total_cmp(&center(b).y));
        let rows = (slab.len() as f64 / cap as f64).sqrt().ceil() as usize;
        let row_len = slab.len().div_ceil(rows.max(1));
        let mut rstart = 0;
        while rstart < slab.len() {
            let rend = (rstart + row_len).min(slab.len());
            slab[rstart..rend].sort_unstable_by(|a, b| center(a).z.total_cmp(&center(b).z));
            rstart = rend;
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::SpatialIndex;
    use crate::LinearScan;
    use simspatial_geom::{Point3, Shape, Sphere};

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

    #[test]
    fn bulk_load_is_valid_and_complete() {
        let data = scattered(5000);
        let t = RTree::bulk_load(&data, RTreeConfig::default());
        assert_eq!(t.len(), 5000);
        t.validate();
        // Bulk-loaded trees are well filled: node count close to optimal.
        let optimal_leaves = 5000usize.div_ceil(16);
        assert!(
            t.node_count() < optimal_leaves * 2,
            "too many nodes: {} for {optimal_leaves} optimal leaves",
            t.node_count()
        );
    }

    #[test]
    fn bulk_load_answers_match_scan() {
        let data = scattered(3000);
        let t = RTree::bulk_load(&data, RTreeConfig::default());
        let scan = LinearScan::build(&data);
        for i in 0..15 {
            let c = Point3::new((i * 6) as f32, (i * 5) as f32, (i * 7) as f32);
            let q = Aabb::new(c, Point3::new(c.x + 15.0, c.y + 10.0, c.z + 8.0));
            let mut a = t.range(&data, &q);
            let mut b = scan.range(&data, &q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    /// The throughput-tuned loader and the seed reference must produce
    /// equally valid trees with identical query answers over `n` entries
    /// (tile structure may order ties differently; the answer sets may
    /// not).
    fn assert_tiling_matches_reference(n: u32) {
        let data = scattered(n);
        let entries: Vec<(Aabb, ElementId)> = data.iter().map(|e| (e.aabb(), e.id)).collect();
        let fast = RTree::bulk_load_entries(entries.clone(), RTreeConfig::default());
        let reference = RTree::bulk_load_entries_reference(entries, RTreeConfig::default());
        fast.validate();
        reference.validate();
        assert_eq!(fast.len(), reference.len());
        for i in 0..12 {
            let c = Point3::new((i * 8) as f32, (i * 6) as f32, (i * 7) as f32);
            let q = Aabb::new(c, Point3::new(c.x + 14.0, c.y + 11.0, c.z + 9.0));
            let mut a = fast.range_bbox(&q);
            let mut b = reference.range_bbox(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{n} entries, query {i}");
        }
    }

    #[test]
    fn cached_key_tiling_matches_reference() {
        assert_tiling_matches_reference(4000);
    }

    #[test]
    fn parallel_tiling_matches_reference() {
        // Above `PARALLEL_MIN` (40 960 entries) the load fans out to
        // worker threads whenever more than one is configured.
        assert_tiling_matches_reference(PARALLEL_MIN as u32 * 5 / 4);
    }

    #[test]
    fn bulk_load_matches_incremental_build_results() {
        let data = scattered(1200);
        let bulk = RTree::bulk_load(&data, RTreeConfig::default());
        let mut inc = RTree::new(RTreeConfig::default());
        for e in &data {
            inc.insert(e.id, e.aabb());
        }
        let q = Aabb::new(Point3::new(10.0, 10.0, 10.0), Point3::new(60.0, 60.0, 60.0));
        let mut a = bulk.range(&data, &q);
        let mut b = inc.range(&data, &q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_in_place_reuses_tree() {
        let data = scattered(800);
        let mut t = RTree::bulk_load(&data, RTreeConfig::default());
        let moved: Vec<Element> = data
            .iter()
            .map(|e| {
                let mut e = e.clone();
                e.translate(simspatial_geom::Vec3::new(1.0, 0.0, 0.0));
                e
            })
            .collect();
        t.rebuild(&moved);
        assert_eq!(t.len(), 800);
        t.validate();
        let q = moved[0].aabb();
        assert!(t.range(&moved, &q).contains(&0));
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let t = RTree::bulk_load(&[], RTreeConfig::default());
        assert!(t.is_empty());
        t.validate();
        let data = scattered(3);
        let t = RTree::bulk_load(&data, RTreeConfig::default());
        assert_eq!(t.len(), 3);
        assert_eq!(t.height(), 1);
        t.validate();
    }

    #[test]
    fn bulk_load_exact_capacity_boundaries() {
        for n in [16, 17, 256, 257] {
            let data = scattered(n);
            let t = RTree::bulk_load(&data, RTreeConfig::default());
            assert_eq!(t.len(), n as usize);
            t.validate();
        }
    }
}
