//! Small crate-private helpers shared by the index implementations.

use crate::traits::KnnSink;
use simspatial_geom::ElementId;

/// The kNN result total order: ascending `(distance, id)`. Every
/// [`crate::KnnIndex`] implementation selects and emits under this order —
/// and the shard merge sorts with it — which is what makes results
/// deterministic under ties and shard merges byte-identical to
/// single-engine execution. This is the single definition; everything else
/// derives from it.
#[inline]
pub(crate) fn knn_key_cmp(a: &(f32, ElementId), b: &(f32, ElementId)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

#[inline]
pub(crate) fn knn_key_less(a: (f32, ElementId), b: (f32, ElementId)) -> bool {
    knn_key_cmp(&a, &b) == std::cmp::Ordering::Less
}

/// A bounded best-k collector over a **borrowed** `(distance, id)` buffer —
/// the kNN analogue of reusing `QueryScratch` vectors: the buffer lives in
/// [`simspatial_geom::QueryScratch::knn_best`], so repeat probes through one
/// scratch allocate nothing once the buffer reaches capacity `k`.
///
/// Internally a max-heap on the `(distance, id)` total order, so the current
/// worst kept result is at the root.
pub(crate) struct KnnHeap<'a> {
    buf: &'a mut Vec<(f32, ElementId)>,
    k: usize,
}

impl<'a> KnnHeap<'a> {
    /// Claims `buf` (cleared) as the storage of a best-`k` heap.
    pub fn new(buf: &'a mut Vec<(f32, ElementId)>, k: usize) -> Self {
        buf.clear();
        Self { buf, k }
    }

    /// True once `k` results are kept (always true for `k == 0`).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.k
    }

    /// The current k-th best distance — the pruning bound. `+∞` while the
    /// heap is not yet full, so every candidate passes the bound.
    #[inline]
    pub fn worst(&self) -> f32 {
        if self.buf.len() >= self.k {
            self.buf.first().map_or(f32::NEG_INFINITY, |e| e.0)
        } else {
            f32::INFINITY
        }
    }

    /// Offers a candidate; keeps the `k` smallest by `(distance, id)`.
    /// Returns whether the candidate was kept.
    #[inline]
    pub fn consider(&mut self, id: ElementId, d: f32) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.buf.len() < self.k {
            self.buf.push((d, id));
            self.sift_up(self.buf.len() - 1);
            true
        } else if knn_key_less((d, id), self.buf[0]) {
            self.buf[0] = (d, id);
            self.sift_down(0);
            true
        } else {
            false
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

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if knn_key_less(self.buf[parent], self.buf[i]) {
                self.buf.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.buf.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && knn_key_less(self.buf[largest], self.buf[l]) {
                largest = l;
            }
            if r < n && knn_key_less(self.buf[largest], self.buf[r]) {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.buf.swap(i, largest);
            i = largest;
        }
    }
}

/// A best-first traversal queue over a **borrowed** `(distance, payload)`
/// buffer ([`simspatial_geom::QueryScratch::knn_queue`]): a min-heap keyed
/// by distance (ties by payload, for determinism), popping the nearest
/// pending node first. Allocation-free once the buffer has grown.
pub(crate) struct MinQueue<'a> {
    buf: &'a mut Vec<(f32, u32)>,
}

impl<'a> MinQueue<'a> {
    /// Claims `buf` (cleared) as the queue storage.
    pub fn new(buf: &'a mut Vec<(f32, u32)>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Enqueues a payload at the given lower-bound distance.
    #[inline]
    pub fn push(&mut self, d: f32, payload: u32) {
        self.buf.push((d, payload));
        let mut i = self.buf.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if knn_key_less(self.buf[i], self.buf[parent]) {
                self.buf.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Removes and returns the nearest pending entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(f32, u32)> {
        let n = self.buf.len();
        if n == 0 {
            return None;
        }
        self.buf.swap(0, n - 1);
        let out = self.buf.pop();
        let n = self.buf.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && knn_key_less(self.buf[l], self.buf[smallest]) {
                smallest = l;
            }
            if r < n && knn_key_less(self.buf[r], self.buf[smallest]) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.buf.swap(i, smallest);
            i = smallest;
        }
        out
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
