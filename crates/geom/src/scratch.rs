//! Reusable query scratch buffers: the allocation-free repeat query path.
//!
//! Index queries used to allocate a fresh candidate vector (and, under
//! replication, a fresh `HashSet` for deduplication) on every call. On the
//! nanosecond scale of in-memory intersection tests (§3 of the paper), the
//! allocator shows up as real cost. [`QueryScratch`] bundles every transient
//! buffer the batch kernel paths need, and [`with_scratch`] hands callers a
//! thread-local instance so the steady-state query path performs **zero**
//! heap allocations (buffers grow to a high-water mark and stay there).
//!
//! Deduplication uses a generation-stamped [`VisitedTable`] instead of a
//! hash set: clearing is an epoch bump (O(1)), membership is one array
//! read, and the table reuses its allocation across queries.
//!
//! The scratch pool is re-entrant: nested `with_scratch` calls (e.g. FLAT
//! querying its seed grid) each pop a distinct instance.

use crate::{ElementId, Shape};
use std::cell::RefCell;

/// A generation-stamped membership table over dense ids.
///
/// `begin(n)` starts a new epoch covering ids `0..n`; `mark(id)` returns
/// whether the id was seen for the first time this epoch. Both are O(1) and
/// allocation-free once the table has grown to the dataset size.
#[derive(Debug, Default)]
pub struct VisitedTable {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedTable {
    /// Starts a new epoch covering ids `0..n`.
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `id` as visited; returns `true` on the first visit this epoch.
    #[inline]
    pub fn mark(&mut self, id: ElementId) -> bool {
        let slot = &mut self.stamps[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether `id` has been marked this epoch.
    #[inline]
    pub fn seen(&self, id: ElementId) -> bool {
        self.stamps[id as usize] == self.epoch
    }

    /// Heap bytes held by the stamp table.
    pub fn memory_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u32>()
    }
}

/// The transient buffers of one in-flight query.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Candidate ids surviving the batched bbox filter.
    pub candidates: Vec<ElementId>,
    /// Traversal frontier (FLAT's link crawl, tree stacks).
    pub frontier: Vec<ElementId>,
    /// Bitmask words from the mask kernels.
    pub mask: Vec<u64>,
    /// Exact geometry gathered for a refine pass: the grid's range query
    /// copies its crossing survivors' shapes here in one pass, so their
    /// independent `data[id]` loads overlap, then tests them.
    pub shapes: Vec<Shape>,
    /// Batched distances (kNN).
    pub dists: Vec<f32>,
    /// Best-k heap storage for the kNN sink paths: `(distance, id)` pairs
    /// maintained as a bounded max-heap by the index crate's heap view.
    pub knn_best: Vec<(f32, ElementId)>,
    /// Best-first traversal queue storage for the kNN sink paths:
    /// `(distance, payload)` pairs maintained as a min-heap.
    pub knn_queue: Vec<(f32, ElementId)>,
    /// Generation-stamped dedupe/visited table.
    pub visited: VisitedTable,
}

impl QueryScratch {
    /// Heap bytes currently held by the scratch buffers — the steady-state
    /// memory cost of one engine's query-time state, which the engine and
    /// service layers fold into their structure-size accounting.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.candidates.capacity() * size_of::<ElementId>()
            + self.frontier.capacity() * size_of::<ElementId>()
            + self.mask.capacity() * size_of::<u64>()
            + self.shapes.capacity() * size_of::<Shape>()
            + self.dists.capacity() * size_of::<f32>()
            + self.knn_best.capacity() * size_of::<(f32, ElementId)>()
            + self.knn_queue.capacity() * size_of::<(f32, ElementId)>()
            + self.visited.memory_bytes()
    }

    /// Clears the per-query buffers (the visited table is epoch-managed and
    /// needs no clearing).
    pub fn reset(&mut self) {
        self.candidates.clear();
        self.frontier.clear();
        self.mask.clear();
        self.shapes.clear();
        self.dists.clear();
        self.knn_best.clear();
        self.knn_queue.clear();
    }
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<QueryScratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-local [`QueryScratch`], reusing buffers across
/// calls. Re-entrant: nested calls receive distinct instances.
pub fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    scratch.reset();
    let out = f(&mut scratch);
    SCRATCH_POOL.with(|pool| pool.borrow_mut().push(scratch));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_epochs_are_independent() {
        let mut v = VisitedTable::default();
        v.begin(10);
        assert!(v.mark(3));
        assert!(!v.mark(3));
        assert!(v.seen(3));
        assert!(!v.seen(4));
        v.begin(10);
        assert!(!v.seen(3), "new epoch forgets old marks");
        assert!(v.mark(3));
    }

    #[test]
    fn visited_grows() {
        let mut v = VisitedTable::default();
        v.begin(2);
        assert!(v.mark(1));
        v.begin(100);
        assert!(v.mark(99));
        assert!(!v.mark(99));
    }

    #[test]
    fn visited_epoch_wraparound() {
        let mut v = VisitedTable {
            stamps: vec![0; 4],
            epoch: u32::MAX - 1,
        };
        v.begin(4);
        assert_eq!(v.epoch, u32::MAX);
        assert!(v.mark(0));
        v.begin(4); // wraps: stamps cleared, epoch restarts
        assert_eq!(v.epoch, 1);
        assert!(v.mark(0), "stale stamps must not survive the wrap");
    }

    #[test]
    fn scratch_is_reentrant_and_reused() {
        let cap = with_scratch(|a| {
            a.candidates.extend([1, 2, 3]);
            with_scratch(|b| {
                assert!(b.candidates.is_empty(), "nested scratch is distinct");
                b.candidates.push(9);
            });
            a.candidates.capacity()
        });
        // The outer instance returns to the pool and is handed out again
        // with its allocation intact (capacity preserved, contents cleared).
        with_scratch(|a| {
            assert!(a.candidates.is_empty());
            assert!(a.candidates.capacity() >= cap.min(3));
        });
    }
}
