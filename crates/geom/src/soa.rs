//! The batch geometry kernel: a structure-of-arrays AABB store.
//!
//! §3.3 of the paper argues that once data is memory-resident, query time is
//! dominated by *intersection tests*, and that scan-friendly layouts (a
//! single uniform grid) beat pointer-chasing trees. [`SoaAabbs`] is the
//! workspace-wide realisation of that argument at the storage-layout level:
//! candidate bounding boxes live in six contiguous `f32` arrays
//! (`min_x … max_z`) plus a parallel id array, so the hot bbox-vs-query
//! filter is a pure streaming pass over flat arrays — no `Element` structs,
//! no `Shape` enums, no per-candidate pointer chase. The comparison loop is
//! written branch-free over 64-lane chunks (one `u64` bitmask per chunk),
//! which the compiler autovectorizes; results come out as bitmasks or
//! appended id lists.
//!
//! Every index hot path stores its candidates in this layout: R-Tree and
//! octree leaves own one store each, and a uniform grid (FLAT's seed grid
//! included) keeps **all** its cells in one store — its arena — that each
//! cell addresses as a span. The spatial joins run their per-cell pair
//! filters through the same kernel. Each batched kernel is written once,
//! on the borrowed [`SoaView`]: a grid cell's span is a view, and an owned
//! store's kernels run on its whole-store view. The companion
//! [`crate::scratch`] module supplies reusable query buffers so the repeat
//! query path allocates nothing.
//!
//! Instrumentation: batched tests are attributed to the same counters as
//! the scalar predicates via [`crate::stats::record_element_tests`] — the
//! callers do this, since only they know which Figure-3 category a test
//! belongs to.

use crate::{Aabb, ElementId, Point3};

/// Lanes per bitmask word in the batched kernels.
pub const MASK_LANES: usize = 64;

/// A structure-of-arrays store of `(Aabb, ElementId)` entries.
///
/// Functionally a `Vec<(Aabb, ElementId)>`, laid out as seven parallel
/// arrays for scan-friendly batched tests. Order-preserving operations
/// (`push`, `append`, `split_off`) and `swap_remove` mirror the `Vec` API
/// so dynamic index maintenance code ports directly.
///
/// A store is either one candidate list (a tree leaf, a join cell) or a
/// uniform grid's arena, where each cell owns a span of entries and is
/// scanned through [`SoaAabbs::view`]. The batched kernels live on
/// [`SoaView`]; the ones here run it over the whole store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoaAabbs {
    ids: Vec<ElementId>,
    min_x: Vec<f32>,
    min_y: Vec<f32>,
    min_z: Vec<f32>,
    max_x: Vec<f32>,
    max_y: Vec<f32>,
    max_z: Vec<f32>,
}

impl SoaAabbs {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ids: Vec::with_capacity(cap),
            min_x: Vec::with_capacity(cap),
            min_y: Vec::with_capacity(cap),
            min_z: Vec::with_capacity(cap),
            max_x: Vec::with_capacity(cap),
            max_y: Vec::with_capacity(cap),
            max_z: Vec::with_capacity(cap),
        }
    }

    /// Builds from `(bbox, id)` entries.
    pub fn from_entries(entries: &[(Aabb, ElementId)]) -> Self {
        let mut s = Self::with_capacity(entries.len());
        for (b, id) in entries {
            s.push(*b, *id);
        }
        s
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Removes all entries, keeping allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.min_x.clear();
        self.min_y.clear();
        self.min_z.clear();
        self.max_x.clear();
        self.max_y.clear();
        self.max_z.clear();
    }

    /// Reserves room for `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.min_x.reserve(additional);
        self.min_y.reserve(additional);
        self.min_z.reserve(additional);
        self.max_x.reserve(additional);
        self.max_y.reserve(additional);
        self.max_z.reserve(additional);
    }

    /// Appends an entry.
    #[inline]
    pub fn push(&mut self, bbox: Aabb, id: ElementId) {
        self.ids.push(id);
        self.min_x.push(bbox.min.x);
        self.min_y.push(bbox.min.y);
        self.min_z.push(bbox.min.z);
        self.max_x.push(bbox.max.x);
        self.max_y.push(bbox.max.y);
        self.max_z.push(bbox.max.z);
    }

    /// The id of entry `i`.
    #[inline]
    pub fn id_at(&self, i: usize) -> ElementId {
        self.ids[i]
    }

    /// The box of entry `i`.
    #[inline]
    pub fn box_at(&self, i: usize) -> Aabb {
        Aabb {
            min: Point3::new(self.min_x[i], self.min_y[i], self.min_z[i]),
            max: Point3::new(self.max_x[i], self.max_y[i], self.max_z[i]),
        }
    }

    /// Entry `i` as a `(bbox, id)` pair.
    #[inline]
    pub fn get(&self, i: usize) -> (Aabb, ElementId) {
        (self.box_at(i), self.ids[i])
    }

    /// Overwrites the box of entry `i` (id unchanged).
    #[inline]
    pub fn set_box(&mut self, i: usize, bbox: Aabb) {
        self.min_x[i] = bbox.min.x;
        self.min_y[i] = bbox.min.y;
        self.min_z[i] = bbox.min.z;
        self.max_x[i] = bbox.max.x;
        self.max_y[i] = bbox.max.y;
        self.max_z[i] = bbox.max.z;
    }

    /// Removes entry `i` by swapping in the last entry; O(1).
    pub fn swap_remove(&mut self, i: usize) -> (Aabb, ElementId) {
        let out = self.get(i);
        self.ids.swap_remove(i);
        self.min_x.swap_remove(i);
        self.min_y.swap_remove(i);
        self.min_z.swap_remove(i);
        self.max_x.swap_remove(i);
        self.max_y.swap_remove(i);
        self.max_z.swap_remove(i);
        out
    }

    /// Moves all entries of `other` onto the end of `self`.
    pub fn append(&mut self, other: &mut SoaAabbs) {
        self.ids.append(&mut other.ids);
        self.min_x.append(&mut other.min_x);
        self.min_y.append(&mut other.min_y);
        self.min_z.append(&mut other.min_z);
        self.max_x.append(&mut other.max_x);
        self.max_y.append(&mut other.max_y);
        self.max_z.append(&mut other.max_z);
    }

    /// Splits off the tail starting at `at` into a new store.
    pub fn split_off(&mut self, at: usize) -> SoaAabbs {
        SoaAabbs {
            ids: self.ids.split_off(at),
            min_x: self.min_x.split_off(at),
            min_y: self.min_y.split_off(at),
            min_z: self.min_z.split_off(at),
            max_x: self.max_x.split_off(at),
            max_y: self.max_y.split_off(at),
            max_z: self.max_z.split_off(at),
        }
    }

    /// Iterates entries as `(bbox, id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Aabb, ElementId)> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The stored ids, in entry order.
    #[inline]
    pub fn ids(&self) -> &[ElementId] {
        &self.ids
    }

    /// The stored ids, mutably — for renumbering entries in place (boxes
    /// and entry order untouched).
    #[inline]
    pub fn ids_mut(&mut self) -> &mut [ElementId] {
        &mut self.ids
    }

    /// Index of the first entry equal to `(bbox, id)`, if any.
    pub fn position_of(&self, id: ElementId, bbox: &Aabb) -> Option<usize> {
        (0..self.len()).find(|&i| self.ids[i] == id && self.box_at(i) == *bbox)
    }

    /// Index of the first entry with this id, if any.
    pub fn position_of_id(&self, id: ElementId) -> Option<usize> {
        self.ids.iter().position(|&e| e == id)
    }

    /// Tight union of all stored boxes ([`Aabb::empty`] when empty).
    pub fn union_all(&self) -> Aabb {
        let mut min = [f32::INFINITY; 3];
        let mut max = [f32::NEG_INFINITY; 3];
        for i in 0..self.len() {
            min[0] = min[0].min(self.min_x[i]);
            min[1] = min[1].min(self.min_y[i]);
            min[2] = min[2].min(self.min_z[i]);
            max[0] = max[0].max(self.max_x[i]);
            max[1] = max[1].max(self.max_y[i]);
            max[2] = max[2].max(self.max_z[i]);
        }
        Aabb {
            min: Point3::new(min[0], min[1], min[2]),
            max: Point3::new(max[0], max[1], max[2]),
        }
    }

    /// Reorders entries in place by ascending `key(bbox)`.
    ///
    /// Sorts an 8-byte `(key, index)` permutation rather than the 28-byte
    /// entries themselves — the cached-key trick that makes STR tiling
    /// sort-bound instead of comparator-bound.
    pub fn sort_by_key(&mut self, key: impl Fn(Aabb) -> f32) {
        let mut perm: Vec<(f32, u32)> = (0..self.len())
            .map(|i| (key(self.box_at(i)), i as u32))
            .collect();
        perm.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        // Apply the permutation by row swaps (no rebuild of the seven
        // arrays). `perm[i].1` names the row that belongs at position `i`;
        // rows already moved by earlier swaps are found by chasing the
        // forwarding indices recorded as positions are finalised.
        for i in 0..perm.len() {
            let mut j = perm[i].1 as usize;
            while j < i {
                j = perm[j].1 as usize;
            }
            self.swap_rows(i, j);
            perm[i].1 = j as u32;
        }
    }

    #[inline]
    fn swap_rows(&mut self, i: usize, j: usize) {
        self.ids.swap(i, j);
        self.min_x.swap(i, j);
        self.min_y.swap(i, j);
        self.min_z.swap(i, j);
        self.max_x.swap(i, j);
        self.max_y.swap(i, j);
        self.max_z.swap(i, j);
    }

    /// Partitions entries into (kept, given) by index membership: indices in
    /// `give` go to the second store, the rest stay in order in the first.
    pub fn partition_by_indices(&self, give: &[usize]) -> (SoaAabbs, SoaAabbs) {
        let mut giving = vec![false; self.len()];
        for &i in give {
            giving[i] = true;
        }
        let mut kept = SoaAabbs::with_capacity(self.len() - give.len());
        let mut given = SoaAabbs::with_capacity(give.len());
        for (i, &gives) in giving.iter().enumerate() {
            let (b, id) = self.get(i);
            if gives {
                given.push(b, id);
            } else {
                kept.push(b, id);
            }
        }
        (kept, given)
    }

    // ---- batched kernels -------------------------------------------------
    //
    // Each kernel is written once, on [`SoaView`]; the owned store runs it
    // on its whole-store view.

    /// A borrowed view of entries `range` — the slice the batched kernels
    /// run on. Indices the kernels report are relative to `range.start`.
    ///
    /// # Panics
    /// If `range` reaches past [`SoaAabbs::len`].
    #[inline]
    pub fn view(&self, range: std::ops::Range<usize>) -> SoaView<'_> {
        SoaView {
            ids: &self.ids[range.clone()],
            min_x: &self.min_x[range.clone()],
            min_y: &self.min_y[range.clone()],
            min_z: &self.min_z[range.clone()],
            max_x: &self.max_x[range.clone()],
            max_y: &self.max_y[range.clone()],
            max_z: &self.max_z[range],
        }
    }

    #[inline]
    fn whole(&self) -> SoaView<'_> {
        self.view(0..self.len())
    }

    /// See [`SoaView::intersect_mask`].
    pub fn intersect_mask(&self, query: &Aabb, mask: &mut Vec<u64>) {
        self.whole().intersect_mask(query, mask);
    }

    /// See [`SoaView::contains_mask`].
    pub fn contains_mask(&self, query: &Aabb, mask: &mut Vec<u64>) {
        self.whole().contains_mask(query, mask);
    }

    /// See [`SoaView::intersect_into`].
    pub fn intersect_into(&self, query: &Aabb, out: &mut Vec<ElementId>) {
        self.whole().intersect_into(query, out);
    }

    /// See [`SoaView::intersect_from_into`].
    pub fn intersect_from_into(&self, start: usize, query: &Aabb, out: &mut Vec<(u32, ElementId)>) {
        self.whole().intersect_from_into(start, query, out);
    }

    /// See [`SoaView::min_dist2_into`].
    pub fn min_dist2_into(&self, p: &Point3, out: &mut Vec<f32>) {
        self.whole().min_dist2_into(p, out);
    }

    /// See [`SoaView::min_dist2_gather_into`].
    pub fn min_dist2_gather_into(&self, p: &Point3, indices: &[ElementId], out: &mut Vec<f32>) {
        self.whole().min_dist2_gather_into(p, indices, out);
    }

    /// Entries the store holds room for without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ids.capacity()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<ElementId>()
            + 6 * self.min_x.capacity() * std::mem::size_of::<f32>()
    }
}

/// A borrowed run of [`SoaAabbs`] entries: a whole store
/// ([`SoaAabbs`]'s own kernels run on one) or one uniform-grid cell's span
/// of the grid's arena ([`SoaAabbs::view`]). Holds the only copy of each
/// batched kernel; entry indices are relative to the run.
#[derive(Debug, Clone, Copy)]
pub struct SoaView<'a> {
    ids: &'a [ElementId],
    min_x: &'a [f32],
    min_y: &'a [f32],
    min_z: &'a [f32],
    max_x: &'a [f32],
    max_y: &'a [f32],
    max_z: &'a [f32],
}

impl<'a> SoaView<'a> {
    /// Number of entries in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The run's ids, in entry order.
    #[inline]
    pub fn ids(&self) -> &'a [ElementId] {
        self.ids
    }

    /// Writes one bit per entry into `mask`: bit `i` set iff box `i`
    /// intersects `query`. `mask` is resized to `ceil(len / 64)` words.
    ///
    /// Per 64-lane chunk the six comparisons run as one branch-free pass
    /// over pre-sliced coordinate arrays (independent iterations, no bounds
    /// checks — the shape the compiler autovectorizes), and a separate
    /// scalar fold packs the lane bytes into the bitmask word.
    pub fn intersect_mask(&self, query: &Aabb, mask: &mut Vec<u64>) {
        let q = *query;
        self.mask_chunks(mask, |i, lanes, s| {
            let (nx, xx) = (&s.min_x[i.clone()], &s.max_x[i.clone()]);
            let (ny, xy) = (&s.min_y[i.clone()], &s.max_y[i.clone()]);
            let (nz, xz) = (&s.min_z[i.clone()], &s.max_z[i]);
            for j in 0..lanes.len().min(nx.len()) {
                lanes[j] = (nx[j] <= q.max.x) as u8
                    & (xx[j] >= q.min.x) as u8
                    & (ny[j] <= q.max.y) as u8
                    & (xy[j] >= q.min.y) as u8
                    & (nz[j] <= q.max.z) as u8
                    & (xz[j] >= q.min.z) as u8;
            }
        });
    }

    /// Writes one bit per entry into `mask`: bit `i` set iff box `i` lies
    /// entirely inside `query`.
    pub fn contains_mask(&self, query: &Aabb, mask: &mut Vec<u64>) {
        let q = *query;
        self.mask_chunks(mask, |i, lanes, s| {
            let (nx, xx) = (&s.min_x[i.clone()], &s.max_x[i.clone()]);
            let (ny, xy) = (&s.min_y[i.clone()], &s.max_y[i.clone()]);
            let (nz, xz) = (&s.min_z[i.clone()], &s.max_z[i]);
            for j in 0..lanes.len().min(nx.len()) {
                lanes[j] = (q.min.x <= nx[j]) as u8
                    & (q.min.y <= ny[j]) as u8
                    & (q.min.z <= nz[j]) as u8
                    & (q.max.x >= xx[j]) as u8
                    & (q.max.y >= xy[j]) as u8
                    & (q.max.z >= xz[j]) as u8;
            }
        });
    }

    /// Shared chunking for the mask kernels: `fill(range, lanes, self)`
    /// writes one 0/1 byte per lane for entries `range`; the fold below
    /// packs them into bitmask words.
    #[inline]
    fn mask_chunks(
        &self,
        mask: &mut Vec<u64>,
        fill: impl Fn(std::ops::Range<usize>, &mut [u8; MASK_LANES], &Self),
    ) {
        let n = self.len();
        mask.clear();
        mask.resize(n.div_ceil(MASK_LANES), 0);
        let mut lanes = [0u8; MASK_LANES];
        for (w, word) in mask.iter_mut().enumerate() {
            let base = w * MASK_LANES;
            let end = (base + MASK_LANES).min(n);
            fill(base..end, &mut lanes, self);
            let mut m = 0u64;
            for (j, &hit) in lanes[..end - base].iter().enumerate() {
                m |= (hit as u64) << j;
            }
            *word = m;
        }
    }

    /// Appends to `out` the ids of all boxes intersecting `query`.
    pub fn intersect_into(&self, query: &Aabb, out: &mut Vec<ElementId>) {
        self.for_each_intersecting(0, query, |_, id, _| out.push(id));
    }

    /// Appends to `out` the `(index, id)` of all boxes intersecting `query`
    /// whose index is `>= start` (the partial-range form the joins use for
    /// upper-triangle pair loops).
    pub fn intersect_from_into(&self, start: usize, query: &Aabb, out: &mut Vec<(u32, ElementId)>) {
        self.for_each_intersecting(start, query, |i, id, _| out.push((i, id)));
    }

    /// The shared filter loop: branch-free comparisons over pre-sliced
    /// arrays; the (rare) hit path calls `emit(index, id, inside)` for each
    /// box at index `>= start` that intersects `query`, in entry order.
    /// `inside` says whether the box lies entirely within `query`
    /// ([`Aabb::contains`]) — for a box that bounds an element's geometry,
    /// a survivor whose exact test cannot fail. Callers that only filter
    /// ignore it.
    #[inline]
    pub fn for_each_intersecting(
        &self,
        start: usize,
        query: &Aabb,
        mut emit: impl FnMut(u32, ElementId, bool),
    ) {
        let n = self.len();
        if start >= n {
            return;
        }
        let q = *query;
        let (nx, xx) = (&self.min_x[start..n], &self.max_x[start..n]);
        let (ny, xy) = (&self.min_y[start..n], &self.max_y[start..n]);
        let (nz, xz) = (&self.min_z[start..n], &self.max_z[start..n]);
        let ids = &self.ids[start..n];
        for j in 0..ids.len().min(nx.len()) {
            let hit = (nx[j] <= q.max.x) as u8
                & (xx[j] >= q.min.x) as u8
                & (ny[j] <= q.max.y) as u8
                & (xy[j] >= q.min.y) as u8
                & (nz[j] <= q.max.z) as u8
                & (xz[j] >= q.min.z) as u8;
            if hit != 0 {
                let inside = (q.min.x <= nx[j]) as u8
                    & (q.min.y <= ny[j]) as u8
                    & (q.min.z <= nz[j]) as u8
                    & (xx[j] <= q.max.x) as u8
                    & (xy[j] <= q.max.y) as u8
                    & (xz[j] <= q.max.z) as u8;
                emit((start + j) as u32, ids[j], inside != 0);
            }
        }
    }

    /// Writes the squared `MINDIST` from `p` to every box into `out`
    /// (resized to `len`). The batched distance bound for kNN search.
    pub fn min_dist2_into(&self, p: &Point3, out: &mut Vec<f32>) {
        let n = self.len();
        out.clear();
        out.resize(n, 0.0);
        let (nx, xx) = (&self.min_x[..n], &self.max_x[..n]);
        let (ny, xy) = (&self.min_y[..n], &self.max_y[..n]);
        let (nz, xz) = (&self.min_z[..n], &self.max_z[..n]);
        for (i, slot) in out.iter_mut().enumerate() {
            let dx = (nx[i] - p.x).max(0.0).max(p.x - xx[i]);
            let dy = (ny[i] - p.y).max(0.0).max(p.y - xy[i]);
            let dz = (nz[i] - p.z).max(0.0).max(p.z - xz[i]);
            *slot = dx * dx + dy * dy + dz * dz;
        }
    }

    /// Gather-addressed form of [`SoaView::min_dist2_into`]: writes into
    /// `out` (resized to `indices.len()`) the squared `MINDIST` from `p` to
    /// the box stored at each row of `indices`. The batched lower-bound
    /// kernel for paths that filter ids first and score second (LSH
    /// candidate scoring) — one streaming pass over the id list, no
    /// intermediate copy of the gathered boxes.
    ///
    /// Rows must be in range; indices are row positions, which for stores
    /// built in dense-id order coincide with element ids.
    pub fn min_dist2_gather_into(&self, p: &Point3, indices: &[ElementId], out: &mut Vec<f32>) {
        out.clear();
        out.resize(indices.len(), 0.0);
        for (slot, &idx) in out.iter_mut().zip(indices) {
            let i = idx as usize;
            let dx = (self.min_x[i] - p.x).max(0.0).max(p.x - self.max_x[i]);
            let dy = (self.min_y[i] - p.y).max(0.0).max(p.y - self.max_y[i]);
            let dz = (self.min_z[i] - p.z).max(0.0).max(p.z - self.max_z[i]);
            *slot = dx * dx + dy * dy + dz * dz;
        }
    }
}

/// Iterates the set bit positions of a bitmask produced by the mask
/// kernels, yielding entry indices.
pub fn mask_indices(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            if word == 0 {
                None
            } else {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * MASK_LANES + bit)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes() -> Vec<(Aabb, ElementId)> {
        (0..200u32)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let x = (h % 97) as f32;
                let y = ((h >> 8) % 97) as f32;
                let z = ((h >> 16) % 97) as f32;
                let e = (h % 7) as f32 * 0.5;
                (
                    Aabb::new(Point3::new(x, y, z), Point3::new(x + e, y + e, z + e)),
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn masks_agree_with_scalar_predicates() {
        let entries = boxes();
        let soa = SoaAabbs::from_entries(&entries);
        let q = Aabb::new(Point3::new(20.0, 20.0, 20.0), Point3::new(60.0, 60.0, 60.0));
        let mut mask = Vec::new();
        soa.intersect_mask(&q, &mut mask);
        for (i, (b, _)) in entries.iter().enumerate() {
            let bit = mask[i / MASK_LANES] >> (i % MASK_LANES) & 1 == 1;
            assert_eq!(bit, b.intersects(&q), "entry {i}");
        }
        soa.contains_mask(&q, &mut mask);
        for (i, (b, _)) in entries.iter().enumerate() {
            let bit = mask[i / MASK_LANES] >> (i % MASK_LANES) & 1 == 1;
            assert_eq!(bit, q.contains(b), "entry {i}");
        }
    }

    #[test]
    fn intersect_into_matches_mask() {
        let entries = boxes();
        let soa = SoaAabbs::from_entries(&entries);
        let q = Aabb::new(Point3::new(10.0, 0.0, 0.0), Point3::new(50.0, 80.0, 80.0));
        let mut mask = Vec::new();
        soa.intersect_mask(&q, &mut mask);
        let from_mask: Vec<ElementId> = mask_indices(&mask).map(|i| soa.id_at(i)).collect();
        let mut direct = Vec::new();
        soa.intersect_into(&q, &mut direct);
        assert_eq!(from_mask, direct);
        let mut partial = Vec::new();
        soa.intersect_from_into(5, &q, &mut partial);
        let expect: Vec<(u32, ElementId)> = mask_indices(&mask)
            .filter(|&i| i >= 5)
            .map(|i| (i as u32, soa.id_at(i)))
            .collect();
        assert_eq!(partial, expect);
    }

    #[test]
    fn survivors_are_flagged_inside_iff_the_query_contains_them() {
        let entries = boxes();
        let soa = SoaAabbs::from_entries(&entries);
        let q = Aabb::new(Point3::new(20.0, 20.0, 20.0), Point3::new(60.0, 60.0, 60.0));
        let mut seen = Vec::new();
        soa.view(0..soa.len())
            .for_each_intersecting(0, &q, |i, id, inside| seen.push((i, id, inside)));
        let expect: Vec<(u32, ElementId, bool)> = entries
            .iter()
            .enumerate()
            .filter(|(_, (b, _))| b.intersects(&q))
            .map(|(i, &(b, id))| (i as u32, id, q.contains(&b)))
            .collect();
        assert_eq!(seen, expect);
        assert!(seen.iter().any(|s| s.2) && seen.iter().any(|s| !s.2));
    }

    #[test]
    fn min_dist_matches_scalar() {
        let entries = boxes();
        let soa = SoaAabbs::from_entries(&entries);
        let p = Point3::new(31.0, 12.0, 73.0);
        let mut out = Vec::new();
        soa.min_dist2_into(&p, &mut out);
        for (i, (b, _)) in entries.iter().enumerate() {
            assert_eq!(out[i], b.min_distance2(&p), "entry {i}");
        }
    }

    #[test]
    fn min_dist_gather_matches_scalar() {
        let entries = boxes();
        let soa = SoaAabbs::from_entries(&entries);
        let p = Point3::new(55.0, 8.0, 40.0);
        let indices: Vec<ElementId> = (0..entries.len() as ElementId)
            .filter(|i| i % 3 == 1)
            .collect();
        let mut out = Vec::new();
        soa.min_dist2_gather_into(&p, &indices, &mut out);
        assert_eq!(out.len(), indices.len());
        for (slot, &i) in out.iter().zip(&indices) {
            assert_eq!(*slot, entries[i as usize].0.min_distance2(&p), "row {i}");
        }
        soa.min_dist2_gather_into(&p, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_view_scans_like_a_store_of_its_entries() {
        let entries = boxes();
        let soa = SoaAabbs::from_entries(&entries);
        let (q, p) = (
            Aabb::new(Point3::new(10.0, 0.0, 0.0), Point3::new(50.0, 80.0, 80.0)),
            Point3::new(31.0, 12.0, 73.0),
        );
        for range in [0..0, 0..200, 7..8, 13..150, 64..192] {
            let view = soa.view(range.clone());
            let part = SoaAabbs::from_entries(&entries[range.clone()]);
            assert_eq!(view.len(), part.len());
            assert_eq!(view.ids(), part.ids());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            view.intersect_into(&q, &mut a);
            part.intersect_into(&q, &mut b);
            assert_eq!(a, b, "{range:?}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            view.intersect_mask(&q, &mut a);
            part.intersect_mask(&q, &mut b);
            assert_eq!(a, b, "{range:?}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            view.min_dist2_into(&p, &mut a);
            part.min_dist2_into(&p, &mut b);
            assert_eq!(a, b, "{range:?}");
        }
    }

    #[test]
    fn vec_like_operations() {
        let entries = boxes();
        let mut soa = SoaAabbs::from_entries(&entries);
        assert_eq!(soa.len(), entries.len());
        assert_eq!(soa.get(3), entries[3]);
        assert_eq!(
            soa.union_all(),
            Aabb::union_all(entries.iter().map(|(b, _)| *b))
        );

        let tail = soa.split_off(150);
        assert_eq!(soa.len(), 150);
        assert_eq!(tail.len(), 50);
        assert_eq!(tail.get(0), entries[150]);

        let mut soa2 = soa.clone();
        let mut tail2 = tail.clone();
        soa2.append(&mut tail2);
        assert!(tail2.is_empty());
        assert_eq!(soa2.len(), entries.len());
        assert_eq!(soa2.iter().collect::<Vec<_>>(), entries);

        let removed = soa2.swap_remove(0);
        assert_eq!(removed, entries[0]);
        assert_eq!(soa2.get(0), entries[entries.len() - 1]);

        let pos = soa2.position_of(entries[10].1, &entries[10].0);
        assert_eq!(pos, Some(10), "swap_remove only disturbs the ends");

        soa2.set_box(0, entries[0].0);
        assert_eq!(soa2.box_at(0), entries[0].0);
    }

    #[test]
    fn sort_and_partition() {
        let entries = boxes();
        let mut soa = SoaAabbs::from_entries(&entries);
        soa.sort_by_key(|b| b.center().x);
        let xs: Vec<f32> = soa.iter().map(|(b, _)| b.center().x).collect();
        assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(soa.len(), entries.len());

        let give: Vec<usize> = (0..soa.len()).filter(|i| i % 3 == 0).collect();
        let (kept, given) = soa.partition_by_indices(&give);
        assert_eq!(kept.len() + given.len(), soa.len());
        assert_eq!(given.len(), give.len());
        assert_eq!(given.get(0), soa.get(0));
    }

    #[test]
    fn empty_and_degenerate_boxes() {
        let mut soa = SoaAabbs::new();
        soa.push(Aabb::empty(), 0);
        soa.push(Aabb::from_point(Point3::new(1.0, 1.0, 1.0)), 1);
        let q = Aabb::new(Point3::ORIGIN, Point3::new(2.0, 2.0, 2.0));
        let mut mask = Vec::new();
        soa.intersect_mask(&q, &mut mask);
        assert_eq!(mask[0] & 1, 0, "empty box intersects nothing");
        assert_eq!(mask[0] >> 1 & 1, 1, "point box inside query");
        assert!(!soa.union_all().is_empty());
        let empty = SoaAabbs::new();
        assert!(empty.union_all().is_empty());
        soa.intersect_mask(&q, &mut mask);
        assert_eq!(mask.len(), 1);
        empty.intersect_mask(&q, &mut mask);
        assert!(mask.is_empty());
    }
}
