//! Small crate-private helpers shared by the index implementations.

use crate::traits::KnnSink;
use simspatial_geom::{Aabb, Element, ElementId, Point3};

/// The mean inter-element spacing `(V/n)^⅓` of a non-empty element set.
/// `V` counts an axis thinner than the longest extent over `n` as that
/// thick, so points on a plane or a line get the spacing of the axes that
/// have extent, not a zero volume's.
pub(crate) fn mean_spacing(elements: &[Element]) -> f32 {
    let ext = Aabb::union_all(elements.iter().map(Element::aabb)).extent();
    let n = elements.len() as f32;
    let thin = ext.x.max(ext.y).max(ext.z) / n;
    let volume = ext.x.max(thin) * ext.y.max(thin) * ext.z.max(thin);
    (volume.max(f32::MIN_POSITIVE) / n).cbrt()
}

/// The kNN result total order: ascending `(distance, id)`. Every
/// [`crate::KnnIndex`] implementation selects and emits under this order —
/// and the shard merge sorts with it — which is what makes results
/// deterministic under ties and shard merges byte-identical to
/// single-engine execution. This is the single definition; everything else
/// derives from it. Ties survive pruning because every prune asks
/// [`KnnHeap::may_admit`].
#[inline]
pub(crate) fn knn_key_cmp(a: &(f32, ElementId), b: &(f32, ElementId)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

#[inline]
pub(crate) fn knn_key_less(a: (f32, ElementId), b: (f32, ElementId)) -> bool {
    knn_key_cmp(&a, &b) == std::cmp::Ordering::Less
}

/// The one kNN bound rule: the squared limit a lower bound must not exceed
/// to still beat or tie the k-th best distance `w`. A bound and the exact
/// distance it bounds round differently, by a few ulps of `w` and of the
/// coordinates' magnitude `reach`; the slack lets such a tie reach the
/// exact `(distance, id)` comparison instead of losing it to a larger id.
#[inline]
pub(crate) fn admit_limit2(w: f32, reach: f32) -> f32 {
    (w + (reach + w) * 8.0 * f32::EPSILON).powi(2)
}

/// The `reach` of a probe at `p` over entries inside `envelope`.
#[inline]
pub(crate) fn knn_reach(p: &Point3, envelope: &Aabb) -> f32 {
    let o = Point3::ORIGIN;
    p.distance(&o) + envelope.min.distance(&o) + envelope.max.distance(&o)
}

/// A bounded best-k collector over a **borrowed** `(distance, id)` buffer —
/// the kNN analogue of reusing `QueryScratch` vectors: the buffer lives in
/// [`simspatial_geom::QueryScratch::knn_best`], so repeat probes through one
/// scratch allocate nothing once the buffer reaches capacity `k`.
///
/// Internally a max-heap on the `(distance, id)` total order, so the current
/// worst kept result is at the root. It also makes every pruning decision:
/// an index asks [`KnnHeap::may_admit`] and never compares a bound with the
/// k-th best itself.
pub(crate) struct KnnHeap<'a> {
    buf: &'a mut Vec<(f32, ElementId)>,
    k: usize,
    reach: f32,
    /// `admit_limit2(k-th best, reach)`, refreshed as the root changes.
    limit2: f32,
}

impl<'a> KnnHeap<'a> {
    /// Claims `buf` (cleared) as the storage of a best-`k` heap that never
    /// prunes.
    pub fn new(buf: &'a mut Vec<(f32, ElementId)>, k: usize) -> Self {
        Self::with_reach(buf, k, 0.0)
    }

    /// A best-`k` heap for one probe whose bounds and distances are computed
    /// from coordinates of magnitude at most `reach` (see [`knn_reach`]).
    pub fn with_reach(buf: &'a mut Vec<(f32, ElementId)>, k: usize, reach: f32) -> Self {
        buf.clear();
        Self {
            buf,
            k,
            reach,
            limit2: f32::INFINITY,
        }
    }

    /// True once `k` results are kept (always true for `k == 0`).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.k
    }

    /// Whether a candidate or subtree whose squared lower bound is `lb2` may
    /// still beat or tie the k-th best: always until `k` results are kept,
    /// then `lb2 <= admit_limit2(k-th best, reach)`. A `false` holds for
    /// every larger bound too, so a best-first search may stop there.
    #[inline]
    pub fn may_admit(&self, lb2: f32) -> bool {
        // A NaN bound is admitted and left to the exact test, as the scan.
        lb2.partial_cmp(&self.limit2) != Some(std::cmp::Ordering::Greater)
    }

    /// The current k-th best distance; `+∞` while the heap is not full.
    #[inline]
    fn worst(&self) -> f32 {
        if self.is_full() {
            self.buf.first().map_or(f32::NEG_INFINITY, |e| e.0)
        } else {
            f32::INFINITY
        }
    }

    /// Offers a candidate; keeps the `k` smallest by `(distance, id)`.
    /// Returns whether the candidate was kept.
    #[inline]
    pub fn consider(&mut self, id: ElementId, d: f32) -> bool {
        let above = |a, b| knn_key_less(b, a);
        if self.buf.len() < self.k {
            self.buf.push((d, id));
            sift_up(self.buf, above);
        } else if self.k > 0 && knn_key_less((d, id), self.buf[0]) {
            self.buf[0] = (d, id);
            sift_down(self.buf, above);
        } else {
            return false;
        }
        if self.is_full() {
            self.limit2 = admit_limit2(self.worst(), self.reach);
        }
        true
    }

    /// Filter and refine over one span: offers `ids[i]` at `exact(ids[i])`
    /// for each `i`, in turn, whose squared lower bound `lb2[i]` is admitted.
    #[inline]
    pub fn refine(&mut self, lb2: &[f32], ids: &[ElementId], exact: impl Fn(ElementId) -> f32) {
        for (&lb2, &id) in lb2.iter().zip(ids) {
            if self.may_admit(lb2) {
                self.consider(id, exact(id));
            }
        }
    }

    /// Sorts the kept results ascending by `(distance, id)` and emits them
    /// into `sink`.
    pub fn emit(self, sink: &mut dyn KnnSink) {
        self.buf.sort_unstable_by(knn_key_cmp);
        for &(d, id) in self.buf.iter() {
            sink.push(id, d);
        }
    }
}

/// Moves the last entry up a binary heap in which `above(a, b)` puts `a`
/// over `b`.
#[inline]
fn sift_up(buf: &mut [(f32, u32)], above: impl Fn((f32, u32), (f32, u32)) -> bool) {
    let mut i = buf.len() - 1;
    while i > 0 && above(buf[i], buf[(i - 1) / 2]) {
        buf.swap(i, (i - 1) / 2);
        i = (i - 1) / 2;
    }
}

/// Moves the root down a binary heap in which `above(a, b)` puts `a` over
/// `b`.
#[inline]
fn sift_down(buf: &mut [(f32, u32)], above: impl Fn((f32, u32), (f32, u32)) -> bool) {
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut top = i;
        if l < buf.len() && above(buf[l], buf[top]) {
            top = l;
        }
        if r < buf.len() && above(buf[r], buf[top]) {
            top = r;
        }
        if top == i {
            return;
        }
        buf.swap(i, top);
        i = top;
    }
}

/// A best-first traversal queue over a **borrowed** `(key, payload)` buffer
/// ([`simspatial_geom::QueryScratch::knn_queue`]): a min-heap keyed by a
/// squared lower bound (ties by payload, for determinism), popping the
/// nearest pending node first. Allocation-free once the buffer has grown.
pub(crate) struct MinQueue<'a> {
    buf: &'a mut Vec<(f32, u32)>,
}

impl<'a> MinQueue<'a> {
    /// Claims `buf` (cleared) as the queue storage.
    pub fn new(buf: &'a mut Vec<(f32, u32)>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Enqueues a payload at the given squared lower bound.
    #[inline]
    pub fn push(&mut self, d: f32, payload: u32) {
        self.buf.push((d, payload));
        sift_up(self.buf, knn_key_less);
    }

    /// Removes and returns the nearest pending payload, or `None` once
    /// `best` rejects its bound, and so every pending one.
    #[inline]
    pub fn pop_admitted(&mut self, best: &KnnHeap) -> Option<u32> {
        self.pop().filter(|e| best.may_admit(e.0)).map(|e| e.1)
    }

    /// Removes and returns the nearest pending entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(f32, u32)> {
        let last = self.buf.pop()?;
        let Some(top) = self.buf.first_mut() else {
            return Some(last);
        };
        let out = std::mem::replace(top, last);
        sift_down(self.buf, knn_key_less);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_heap_keeps_k_smallest_with_id_ties() {
        let mut buf = Vec::new();
        let mut heap = KnnHeap::new(&mut buf, 3);
        assert!(!heap.is_full());
        assert_eq!(heap.worst(), f32::INFINITY);
        for (id, d) in [(5u32, 2.0f32), (1, 1.0), (9, 2.0), (2, 2.0), (7, 0.5)] {
            heap.consider(id, d);
        }
        assert!(heap.is_full());
        // k smallest by (d, id): (0.5, 7), (1.0, 1), (2.0, 2).
        assert_eq!(heap.worst(), 2.0);
        let mut out: Vec<(ElementId, f32)> = Vec::new();
        heap.emit(&mut out);
        assert_eq!(out, vec![(7, 0.5), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn knn_heap_k_zero_rejects() {
        let mut buf = Vec::new();
        let mut heap = KnnHeap::new(&mut buf, 0);
        assert!(heap.is_full());
        assert!(!heap.consider(0, 0.0));
        let mut out: Vec<(ElementId, f32)> = Vec::new();
        heap.emit(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn min_queue_pops_ascending() {
        let mut buf = Vec::new();
        let mut q = MinQueue::new(&mut buf);
        for (d, p) in [(3.0f32, 1u32), (1.0, 2), (2.0, 3), (1.0, 1), (0.0, 9)] {
            q.push(d, p);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(
            popped,
            vec![(0.0, 9), (1.0, 1), (1.0, 2), (2.0, 3), (3.0, 1)]
        );
    }
}
